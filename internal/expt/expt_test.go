package expt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"log/slog"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite "+goldenFile+" from this run's tables")

// goldenFile holds the sha256 of every experiment table's JSON at
// Options{Quick: true, Seed: 1}, keyed by id, and of each goldenVariants
// experiment's table at that variant's options, keyed by id + key. Each
// table's parts are hashed too, under "<key>#<part>" (see tableDigests).
const goldenFile = "testdata/golden_quick_seed1.json"

// goldenVariants are the option sets some simulator experiments are
// hashed at again; key suffixes their golden keys and, without its
// slash, names their subtests.
//   - "/observed" is `wsswitch -quick -json -attribution -timeline 200`
//     (probes are on in -json mode), the figs workload of wsbench: the
//     timeline, attribution and probe attachments appear only then.
//     ext-meshsim ignores these options, so its default digest already
//     covers it.
//   - "/adaptive" is `wsswitch -quick -json -adaptive`: early abort in
//     the sweeps of fig21, fig22 and fig24. fig21's table reads only
//     saturation throughput, which abort cannot move, so its digest
//     equals the default one. fig23 stays out for time (3.1-3.4 s in
//     this mode on two workers).
var goldenVariants = []struct {
	key  string
	opts Options
	ids  map[string]bool
}{
	{"/observed", Options{Quick: true, Seed: 1, Probe: true, Attribution: true, TimelineInterval: 200},
		map[string]bool{"fig21": true, "fig22": true, "fig24": true, "ext-tail": true}},
	{"/adaptive", Options{Quick: true, Seed: 1, Probe: true, Adaptive: true},
		map[string]bool{"fig21": true, "fig22": true, "fig24": true}},
}

// TestAllExperimentsRun executes every registered experiment in Quick
// mode, sanity-checks the output shape, and compares the sha256 of each
// table's JSON with goldenFile, so any change to any experiment's output
// names the experiments it moved; the goldenVariants ones are compared
// again at each variant's options in a subtest named after it. After an
// intended output change, run
//
//	go test ./internal/expt -run TestAllExperimentsRun -update
//
// and commit the rewritten file. Digests are compared on linux/amd64
// only: on other architectures the compiler may fuse multiply-adds,
// which changes float results in the last bits.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in short mode")
	}
	golden := map[string]string{}
	if b, err := os.ReadFile(goldenFile); err == nil {
		if err := json.Unmarshal(b, &golden); err != nil {
			t.Fatalf("%s: %v", goldenFile, err)
		}
	} else if !*update {
		t.Fatal(err)
	}
	compare := runtime.GOOS == "linux" && runtime.GOARCH == "amd64"
	if !compare && !*update {
		t.Logf("golden digests not compared on %s/%s: Go may fuse multiply-adds there", runtime.GOOS, runtime.GOARCH)
	}
	o := Options{Quick: true, Seed: 1}
	// digest runs experiment id at opts and compares the sha256 of its
	// table's JSON with golden[key], or records it there, with its parts'
	// digests, under -update. The whole-table digest is the gate; on a
	// mismatch the parts' digests name what moved.
	digest := func(t *testing.T, key, id string, opts Options) *Table {
		tab, err := Run(id, opts)
		if err != nil {
			t.Fatal(err)
		}
		sum, parts, err := tableDigests(tab)
		if err != nil {
			t.Errorf("table JSON: %v", err)
		} else if *update {
			for k := range golden {
				if strings.HasPrefix(k, key+"#") {
					delete(golden, k) // a part the table no longer has
				}
			}
			golden[key] = sum
			for part, d := range parts {
				golden[key+"#"+part] = d
			}
		} else if compare && golden[key] != sum {
			t.Errorf("%s: table JSON sha256 %s, %s has %q; parts moved: %s (rerun with -update if the change is intended)",
				key, sum, goldenFile, golden[key], strings.Join(movedParts(golden, parts, key), ", "))
		}
		return tab
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tab := digest(t, id, id, o)
			if tab.ID != id {
				t.Errorf("table ID = %q, want %q", tab.ID, id)
			}
			if len(tab.Rows) == 0 {
				t.Error("experiment produced no rows")
			}
			if len(tab.Headers) == 0 {
				t.Error("experiment produced no headers")
			}
			for i, r := range tab.Rows {
				if len(r) != len(tab.Headers) {
					t.Errorf("row %d has %d cells for %d headers", i, len(r), len(tab.Headers))
				}
			}
			if out := tab.Render(); !strings.Contains(out, id) {
				t.Error("Render() missing experiment id")
			}
			for _, v := range goldenVariants {
				if v.ids[id] {
					t.Run(v.key[1:], func(t *testing.T) { digest(t, id+v.key, id, v.opts) })
				}
			}
		})
	}
	if *update {
		for key := range golden {
			table, _, _ := strings.Cut(key, "#")
			id, variant, _ := strings.Cut(table, "/")
			wanted := false
			if _, ok := registry[id]; ok {
				wanted = variant == ""
				for _, v := range goldenVariants {
					wanted = wanted || v.key == "/"+variant && v.ids[id]
				}
			}
			if !wanted {
				delete(golden, key) // experiment or variant digest no longer wanted
			}
		}
		b, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// tableDigests returns the hex sha256 of tab's JSON and of each of its
// parts: every attachment's JSON, under "attachments.<name>", and the
// JSON of the table without its attachments, under "table".
func tableDigests(tab *Table) (string, map[string]string, error) {
	hash := func(v interface{}) (string, error) {
		b, err := json.Marshal(v)
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:]), err
	}
	whole, err := hash(tab)
	if err != nil {
		return "", nil, err
	}
	bare := *tab
	bare.Attachments = nil
	parts := map[string]string{}
	if parts["table"], err = hash(&bare); err != nil {
		return "", nil, err
	}
	for name, v := range tab.Attachments {
		if parts["attachments."+name], err = hash(v); err != nil {
			return "", nil, err
		}
	}
	return whole, parts, nil
}

// movedParts lists, sorted, the parts of the table under key whose
// digest differs from golden's, a part only one side has included.
func movedParts(golden, parts map[string]string, key string) []string {
	moved := map[string]bool{}
	for k, d := range golden {
		if part, ok := strings.CutPrefix(k, key+"#"); ok && parts[part] != d {
			moved[part] = true
		}
	}
	for part, d := range parts {
		if golden[key+"#"+part] != d {
			moved[part] = true
		}
	}
	names := make([]string, 0, len(moved))
	for part := range moved {
		names = append(names, part)
	}
	sort.Strings(names)
	return names
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("fig999", Options{}); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

func TestIDsComplete(t *testing.T) {
	want := []string{
		"fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig15", "fig16", "fig17", "fig18", "fig19",
		"fig21", "fig22", "fig23", "fig24", "fig25", "fig26", "fig27",
		"fig28", "table1", "table2", "table3", "table4", "table5",
		"table6", "table7", "table8", "table9",
		"ext-yield", "ext-optimizers", "ext-meshsim", "ext-tail",
	}
	got := map[string]bool{}
	for _, id := range IDs() {
		got[id] = true
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(got) != len(want) {
		t.Errorf("registered %d experiments, want %d", len(got), len(want))
	}
}

// Key paper anchors must appear in the quick-mode results.
func TestFig6IdealAnchors(t *testing.T) {
	tab, err := Run("fig6", Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cell := func(rowSub string, col int) string {
		for _, r := range tab.Rows {
			if r[0] == rowSub {
				return r[col]
			}
		}
		t.Fatalf("no row for substrate %s", rowSub)
		return ""
	}
	if got := cell("300", 1); got != "8192" {
		t.Errorf("ideal 300mm 200G ports = %s, want 8192", got)
	}
	if got := cell("100", 1); got != "1024" {
		t.Errorf("ideal 100mm 200G ports = %s, want 1024", got)
	}
	if got := cell("300", 4); got != "32x" {
		t.Errorf("ideal benefit = %s, want 32x", got)
	}
}

func TestTable7ExactValues(t *testing.T) {
	tab, err := Run("table7", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	find := func(metric string) []string {
		for _, r := range tab.Rows {
			if r[0] == metric {
				return r
			}
		}
		t.Fatalf("missing metric %q", metric)
		return nil
	}
	if r := find("# of switches"); r[1] != "1" || r[2] != "96" {
		t.Errorf("switches row = %v, want 1 vs 96", r)
	}
	if r := find("size (RU)"); r[1] != "20" || r[2] != "192" {
		t.Errorf("RU row = %v, want 20 vs 192", r)
	}
}

func TestFig16ReductionInPaperBand(t *testing.T) {
	tab, err := Run("fig16", Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Find the 300 mm row and parse its reduction percentage.
	for _, r := range tab.Rows {
		if r[0] != "300" {
			continue
		}
		red, err := strconv.ParseFloat(strings.TrimSuffix(r[4], "%"), 64)
		if err != nil {
			t.Fatalf("cannot parse reduction %q", r[4])
		}
		if red < 25 || red > 45 {
			t.Errorf("300mm hetero reduction = %v%%, want 25-45%% (paper: 30.8%%)", red)
		}
		if r[6] != "true" {
			t.Errorf("300mm hetero design not within water cooling: %v", r)
		}
		return
	}
	t.Fatal("no 300mm row in fig16")
}

// With Probe enabled, simulator experiments must attach raw stats,
// sweep summaries and per-router probe snapshots, and the whole table
// must survive a JSON round trip — the contract behind wsswitch -json.
func TestFig22ProbeAttachments(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment in short mode")
	}
	tab, err := Run("fig22", Options{Quick: true, Seed: 1, Probe: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"baseline_stats", "baseline_summary", "baseline_probes",
		"proprietary_stats", "proprietary_summary", "proprietary_probes",
	} {
		if _, ok := tab.Attachments[key]; !ok {
			t.Errorf("fig22 missing attachment %q", key)
		}
	}
	b, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Attachments map[string]json.RawMessage `json:"attachments"`
	}
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	var probes []struct {
		Probe struct {
			Routers []map[string]interface{} `json:"routers"`
			Latency map[string]interface{}   `json:"latency"`
		} `json:"probe"`
	}
	if err := json.Unmarshal(back.Attachments["proprietary_probes"], &probes); err != nil {
		t.Fatal(err)
	}
	if len(probes) == 0 || len(probes[0].Probe.Routers) == 0 {
		t.Fatal("probe snapshots empty")
	}
	for _, key := range []string{"sa_stalls", "va_stalls", "credit_stalls", "flits"} {
		if _, ok := probes[0].Probe.Routers[0][key]; !ok {
			t.Errorf("router snapshot missing %q", key)
		}
	}
	for _, key := range []string{"p50", "p99", "p999"} {
		if _, ok := probes[0].Probe.Latency[key]; !ok {
			t.Errorf("latency snapshot missing %q", key)
		}
	}
	// Without Probe, no probe attachments ride along (stats still do).
	plain, err := Run("fig22", Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.Attachments["proprietary_probes"]; ok {
		t.Error("probe attachments present without Probe option")
	}
}

// A logger passed through Options must receive experiment and simulator
// events without altering results.
func TestRunWithLogger(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment in short mode")
	}
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	tab, err := Run("ext-tail", Options{Quick: true, Seed: 1, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run("ext-tail", Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Rows {
		for j := range plain.Rows[i] {
			if plain.Rows[i][j] != tab.Rows[i][j] {
				t.Errorf("logging changed results: row %d cell %d: %q vs %q",
					i, j, plain.Rows[i][j], tab.Rows[i][j])
			}
		}
	}
	out := buf.String()
	for _, want := range []string{"expt.start", "sim.run", "expt.done"} {
		if !strings.Contains(out, want) {
			t.Errorf("log missing %q event", want)
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Headers: []string{"a", "bb"}, Notes: []string{"n"}}
	tab.AddRow(1, 2.50)
	out := tab.Render()
	for _, want := range []string{"a", "bb", "1", "2.5", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q in:\n%s", want, out)
		}
	}
}

func TestTrimFloat(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{1, "1"}, {2.5, "2.5"}, {2.50, "2.5"}, {0, "0"}, {-1.25, "-1.25"}, {0.001, "0"},
	}
	for _, tc := range tests {
		if got := trimFloat(tc.in); got != tc.want {
			t.Errorf("trimFloat(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
