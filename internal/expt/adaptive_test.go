package expt

import (
	"encoding/json"
	"testing"
)

// TestFig21AdaptiveDeterministic pins that adaptive mode keeps the
// experiment harness's serial==parallel guarantee: every grid point
// derives its own seed and lands in its series' index slot, and the
// abort detector reads only seed-determined state, so the whole table
// is byte-identical for any worker count.
func TestFig21AdaptiveDeterministic(t *testing.T) {
	serial, err := Run("fig21", Options{Quick: true, Seed: 1, Adaptive: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 0} {
		par, err := Run("fig21", Options{Quick: true, Seed: 1, Adaptive: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(par)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("workers=%d: adaptive fig21 diverged from serial", workers)
		}
	}
}

// TestFig21AdaptiveMatchesPlain pins that -adaptive leaves fig21's
// table byte-identical: it runs the same load grid with early abort
// armed, abort never cuts a measurement window, and every cell is the
// highest Accepted of its sweep.
func TestFig21AdaptiveMatchesPlain(t *testing.T) {
	var out [2][]byte
	for i, adaptive := range []bool{false, true} {
		tab, err := Run("fig21", Options{Quick: true, Seed: 1, Adaptive: adaptive})
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = json.Marshal(tab); err != nil {
			t.Fatal(err)
		}
	}
	if string(out[1]) != string(out[0]) {
		t.Errorf("adaptive fig21 table differs from the plain run:\nplain    %s\nadaptive %s", out[0], out[1])
	}
}

// TestAdaptiveSweepSummariesMatch pins that turning on Adaptive for
// fig22 leaves the saturation summary identical at -quick: the
// early-abort engine only cuts drain budgets, never the measurement the
// summary is built from.
func TestAdaptiveSweepSummariesMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("two full fig22 runs in short mode")
	}
	def, err := Run("fig22", Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ad, err := Run("fig22", Options{Quick: true, Seed: 1, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"baseline_summary", "proprietary_summary"} {
		d, err := json.Marshal(def.Attachments[key])
		if err != nil {
			t.Fatal(err)
		}
		a, err := json.Marshal(ad.Attachments[key])
		if err != nil {
			t.Fatal(err)
		}
		if string(d) != string(a) {
			t.Errorf("%s diverged under -adaptive:\ndefault  %s\nadaptive %s", key, d, a)
		}
	}
}
