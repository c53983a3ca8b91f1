package sim

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"waferswitch/internal/traffic"
)

// One worker runs inline in index order whatever order is given, with
// one worker state: a single configured worker, and any worker count on
// a one-core host.
func TestPoolOneWorkerIndexOrder(t *testing.T) {
	const n = 6
	reversed := []int{5, 4, 3, 2, 1, 0}
	check := func(name string, workers int) {
		t.Helper()
		var ran []int
		built := 0
		err := Pool{Workers: workers}.Each(name, n, reversed, func() func(int) error {
			built++
			return func(i int) error { ran = append(ran, i); return nil }
		})
		if err != nil {
			t.Fatal(err)
		}
		if built != 1 || !slices.Equal(ran, []int{0, 1, 2, 3, 4, 5}) {
			t.Errorf("%s: newWorker called %d times, items ran %v; want 1 and ascending", name, built, ran)
		}
	}
	check("workers=1", 1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	check("workers=4,GOMAXPROCS=1", 4)
}

// A panicking point becomes an error naming it, on the inline path and
// on worker goroutines alike, instead of killing the process.
func TestSweepRecoversPanics(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	build := func() (*Network, error) { panic("no network") }
	injf := SyntheticInjector(traffic.Uniform(128), 4)
	for _, workers := range []int{1, 2} {
		_, err := Sweep(build, injf, []float64{0.1, 0.2, 0.3}, SweepOptions{Workers: workers})
		if err == nil || !strings.Contains(err.Error(), "point") || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("workers=%d: got %v, want an error naming the panicked point", workers, err)
		}
	}
}
