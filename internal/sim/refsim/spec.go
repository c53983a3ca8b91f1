package refsim

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"waferswitch/internal/obs"
	"waferswitch/internal/sim"
	"waferswitch/internal/ssc"
	"waferswitch/internal/topo"
	"waferswitch/internal/traffic"
)

// Spec is a complete, self-describing differential-test case: topology
// family and size, traffic pattern, every simulator config knob, the
// seed and the offered load. Its String form is the reproduction tuple
// printed by failing equivalence tests and fuzz runs; feed it back with
// `wsswitch -replay "<spec>"` (or ParseSpec) to re-run the exact
// divergence deterministically.
type Spec struct {
	Family  string // clos | mesh | fbfly | dfly
	Size    int    // 0..2: family-specific shape (see Build)
	Pattern string // uniform | tornado | neighbor | asymmetric

	LinkLat int // channel latency between routers, cycles

	VCs, Buf, Pkt        int // VCs/port, flit buffer/port, flits/packet
	RCI, RCO, Pipe, Term int // pipeline delays
	Warmup, Measure      int // cycles
	Drain                int // 0 = default (10x Measure)

	Seed int64
	Load float64 // offered, flits/terminal/cycle

	// Timeline and Attribution attach the corresponding observers to the
	// optimized run, so Diff checks that they leave its Stats, latency
	// histogram and deliveries bit-identical to the reference's.
	Timeline    bool
	Attribution bool
}

// Observer shape used by Diff when Spec.Timeline is set: a short window
// and a small sample budget so compaction (interval doubling) fires on
// typical fuzz-sized runs.
const (
	diffTimelineInterval = 16
	diffTimelineSamples  = 32
)

// Families and patterns a Spec can name, in the order raw fuzz bytes
// index them.
var (
	specFamilies = []string{"clos", "mesh", "fbfly", "dfly"}
	specPatterns = []string{"uniform", "tornado", "neighbor", "asymmetric"}
)

// wideFamilyByte is the lowest raw family byte that selects the
// "wideclos" family, a Clos whose spines have more than 64 ports, so
// the simulator's router-level port masks span two words. Bytes below
// it index specFamilies round-robin, which fixes the meaning of the
// committed corpus entries below it; the wide shape, several times
// costlier per run, gets a small share of random fuzz inputs.
const wideFamilyByte = 252

// SpecFromRaw maps arbitrary fuzz-provided values into a valid Spec:
// enums index modulo the tables (family bytes from wideFamilyByte up
// pick "wideclos"), every knob clamps into a range where
// the configuration is buildable and a run completes in well under a
// second. The mapping is total — any input is a legal test case. The
// ranges deliberately reach the regimes where the optimized simulator's
// packed state is most stressed: up to 8 VCs per port, buffers down to
// the single-packet minimum (Buf == Pkt), and offered loads up to 0.96
// — deep into saturation, where every arbitration path runs full.
func SpecFromRaw(family, size, pattern, link, vcs, buf, pkt, rci, rco, pipe, term uint8,
	warmup, measure uint16, seed int64, loadMil uint16) Spec {
	p := 1 + int(pkt)%4
	fam := specFamilies[int(family)%len(specFamilies)]
	if family >= wideFamilyByte {
		fam = "wideclos"
	}
	return Spec{
		Family:  fam,
		Size:    int(size) % 3,
		Pattern: specPatterns[int(pattern)%len(specPatterns)],
		LinkLat: 1 + int(link)%4,
		VCs:     1 + int(vcs)%8,
		Pkt:     p,
		Buf:     p + int(buf)%14,
		RCI:     1 + int(rci)%3,
		RCO:     1 + int(rco)%3,
		Pipe:    int(pipe) % 3,
		Term:    int(term) % 4,
		Warmup:  10 + int(warmup)%120,
		Measure: 40 + int(measure)%200,
		Seed:    seed,
		Load:    0.02 + float64(loadMil%940)/1000,
	}
}

// String renders the spec as the canonical replay tuple:
// space-separated key=value pairs, parseable by ParseSpec.
func (s Spec) String() string {
	return fmt.Sprintf(
		"family=%s size=%d pattern=%s link=%d vcs=%d buf=%d pkt=%d rci=%d rco=%d pipe=%d term=%d warmup=%d measure=%d drain=%d seed=%d load=%g timeline=%t attribution=%t",
		s.Family, s.Size, s.Pattern, s.LinkLat, s.VCs, s.Buf, s.Pkt,
		s.RCI, s.RCO, s.Pipe, s.Term, s.Warmup, s.Measure, s.Drain,
		s.Seed, s.Load, s.Timeline, s.Attribution)
}

// ParseSpec parses the String form back into a Spec. Unknown keys and
// values no run can use (a size outside 0..2; a load that is negative,
// infinite or NaN) are errors, so a mistyped replay tuple fails loudly
// instead of silently running a default, panicking or reporting a
// false divergence. Tuples printed before the sharded engine was
// removed carry shards=N: 0 and 1 named the serial run and still
// parse; any other count is refused.
func ParseSpec(in string) (Spec, error) {
	var s Spec
	for _, tok := range strings.Fields(in) {
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return s, fmt.Errorf("refsim: malformed spec token %q (want key=value)", tok)
		}
		var err error
		switch key {
		case "family":
			s.Family = val
		case "pattern":
			s.Pattern = val
		case "size":
			s.Size, err = strconv.Atoi(val)
		case "link":
			s.LinkLat, err = strconv.Atoi(val)
		case "vcs":
			s.VCs, err = strconv.Atoi(val)
		case "buf":
			s.Buf, err = strconv.Atoi(val)
		case "pkt":
			s.Pkt, err = strconv.Atoi(val)
		case "rci":
			s.RCI, err = strconv.Atoi(val)
		case "rco":
			s.RCO, err = strconv.Atoi(val)
		case "pipe":
			s.Pipe, err = strconv.Atoi(val)
		case "term":
			s.Term, err = strconv.Atoi(val)
		case "warmup":
			s.Warmup, err = strconv.Atoi(val)
		case "measure":
			s.Measure, err = strconv.Atoi(val)
		case "drain":
			s.Drain, err = strconv.Atoi(val)
		case "seed":
			s.Seed, err = strconv.ParseInt(val, 10, 64)
		case "load":
			s.Load, err = strconv.ParseFloat(val, 64)
		case "shards":
			var shards int
			if shards, err = strconv.Atoi(val); err == nil && shards != 0 && shards != 1 {
				return s, fmt.Errorf("refsim: %q: the sharded engine was removed; only shards=0 and shards=1 (the serial run) replay", tok)
			}
		case "timeline":
			s.Timeline, err = strconv.ParseBool(val)
		case "attribution":
			s.Attribution, err = strconv.ParseBool(val)
		default:
			return s, fmt.Errorf("refsim: unknown spec key %q", key)
		}
		if err != nil {
			return s, fmt.Errorf("refsim: bad spec value %q: %v", tok, err)
		}
	}
	if s.Family == "" {
		return s, fmt.Errorf("refsim: spec missing family")
	}
	if s.Size < 0 || s.Size > 2 {
		return s, fmt.Errorf("refsim: size=%d outside 0..2", s.Size)
	}
	if !(s.Load >= 0) || math.IsInf(s.Load, 1) {
		return s, fmt.Errorf("refsim: load=%g must be finite and non-negative", s.Load)
	}
	return s, nil
}

// Build constructs the spec's topology. Shapes are kept small (4-24
// routers, 20-130 terminals; wideclos 6-68 routers of up to 128
// ports, 256-512 terminals) so a differential run costs milliseconds.
func (s Spec) Build() (*topo.Topology, error) {
	chip, err := ssc.MustTH5(200).Deradix(16) // radix-16 sub-switch
	if err != nil {
		return nil, err
	}
	switch s.Family {
	case "clos":
		totals := [3]int{32, 64, 128}
		return topo.HomogeneousClos(totals[s.Size%3], chip)
	case "mesh":
		switch s.Size % 3 {
		case 0:
			return topo.MeshTopo(2, 2, chip, 2)
		case 1:
			return topo.MeshTopo(2, 3, chip, 2)
		default:
			return topo.MeshTopo(3, 3, chip, 1)
		}
	case "fbfly":
		shapes := [3][2]int{{2, 2}, {2, 3}, {3, 3}}
		sh := shapes[s.Size%3]
		return topo.FlattenedButterfly(sh[0], sh[1], chip)
	case "dfly":
		switch s.Size % 3 {
		case 0:
			return topo.Dragonfly(3, 2, 1, 1, chip)
		case 1:
			return topo.Dragonfly(4, 2, 2, 1, chip)
		default:
			return topo.Dragonfly(5, 2, 2, 1, chip)
		}
	case "wideclos":
		// Sizes 0 and 1 put radix-16 leaves under radix-128 spines,
		// narrow and wide routers side by side; size 2 is built of
		// radix-128 chiplets only, so terminals attach to wide routers.
		wide, err := ssc.MustTH5(200).Deradix(2)
		if err != nil {
			return nil, err
		}
		switch s.Size % 3 {
		case 0:
			return topo.Clos2(256, chip, wide)
		case 1:
			return topo.Clos2(512, chip, wide)
		default:
			return topo.HomogeneousClos(256, wide)
		}
	default:
		return nil, fmt.Errorf("refsim: unknown topology family %q", s.Family)
	}
}

// Config materializes the simulator configuration the spec names.
func (s Spec) Config() sim.Config {
	return sim.Config{
		NumVCs:        s.VCs,
		BufPerPort:    s.Buf,
		PacketFlits:   s.Pkt,
		RCIngress:     s.RCI,
		RCOther:       s.RCO,
		PipeDelay:     s.Pipe,
		TermDelay:     s.Term,
		WarmupCycles:  s.Warmup,
		MeasureCycles: s.Measure,
		DrainCycles:   s.Drain,
		Seed:          s.Seed,
	}
}

// Injector builds the spec's traffic injector for a network with the
// given terminal count.
func (s Spec) Injector(terms int) (sim.Injector, error) {
	var pat traffic.Pattern
	switch s.Pattern {
	case "uniform":
		pat = traffic.Uniform(terms)
	case "tornado":
		pat = traffic.Tornado(terms)
	case "neighbor":
		pat = traffic.Neighbor(terms)
	case "asymmetric":
		pat = traffic.Asymmetric(terms)
	default:
		return nil, fmt.Errorf("refsim: unknown traffic pattern %q", s.Pattern)
	}
	return sim.RateInjector{Load: s.Load, Pattern: pat, PacketFlits: s.Pkt}, nil
}

// CheckOptions configures the invariant checker for a run of the spec.
// Routing is deadlock-free by construction on every family but the
// dragonfly: the Clos routes up, then down, and the mesh and the
// flattened butterfly take their row hop before their column hop, so no
// channel-dependency cycle can form. The dragonfly's minimal routes can
// close one (it needs hop-phase VC classes, which the simulator does not
// model), so its watchdog is off: a wedge there is a property of the
// configuration, not a simulator bug, and both implementations must
// stall identically.
func (s Spec) CheckOptions() sim.CheckOptions {
	if s.Family == "dfly" {
		return sim.CheckOptions{Watchdog: -1}
	}
	return sim.CheckOptions{}
}

// DiffReport is the outcome of one differential run.
type DiffReport struct {
	Spec Spec
	Opt  sim.Stats // optimized simulator
	Ref  sim.Stats // reference simulator
	// FirstCapped is the reference run's first cycle at which a full
	// source queue skipped a trial, -1 if none (see Result).
	FirstCapped int64
	// Violations are the runtime invariant checker's findings on the
	// optimized run (the reference run is the oracle and runs unchecked).
	Violations []string
	// Divergences describe every way the two runs disagreed: Stats
	// fields, latency histogram, delivered-packet multiset.
	Divergences []string
}

// OK reports whether the two simulators agreed and no invariant fired.
func (r *DiffReport) OK() bool {
	return len(r.Violations) == 0 && len(r.Divergences) == 0
}

// Summary renders a human-readable failure report headed by the replay
// tuple.
func (r *DiffReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spec: %s\n", r.Spec)
	if r.OK() {
		fmt.Fprintf(&b, "OK: optimized and reference simulators agree (completed=%d accepted=%.4f avg_latency=%.2f)\n",
			r.Opt.Completed, r.Opt.Accepted, r.Opt.AvgLatency)
		return b.String()
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "invariant: %s\n", v)
	}
	for _, d := range r.Divergences {
		fmt.Fprintf(&b, "divergence: %s\n", d)
	}
	return b.String()
}

// Diff runs the spec through both simulators and compares everything
// observable: Stats, the latency histogram (bit-identical bucket counts
// and float sums), and the delivered-packet multiset. The optimized run
// also carries the runtime invariant checker, so a diff both
// cross-checks the implementations against each other and the optimized
// one against the specification's conservation laws.
func (s Spec) Diff() (*DiffReport, error) { return s.DiffTraced(nil) }

// DiffTraced is Diff with rec, when non-nil, recording the optimized
// run's packet lifecycle: one run both reports the divergence and
// yields the trace that explains it. A flight recorder is
// observational, so the report is Diff's.
func (s Spec) DiffTraced(rec *obs.FlightRecorder) (*DiffReport, error) {
	top, err := s.Build()
	if err != nil {
		return nil, err
	}
	return s.diffOn(top, s.CheckOptions(), rec)
}

// diffOn is Diff's comparison on a given topology in place of the one
// the spec's family and size name: every other knob comes from the
// spec, opt configures the invariant checker on the optimized run, and
// rec, when non-nil, records that run's packet lifecycle.
func (s Spec) diffOn(top *topo.Topology, opt sim.CheckOptions, rec *obs.FlightRecorder) (*DiffReport, error) {
	rep, err := diffInjected(top, sim.ConstantLatency(s.LinkLat), s.Config(), s.Load,
		func() (sim.Injector, error) { return s.Injector(top.ExternalPorts()) },
		func(n *sim.Network) error {
			if err := n.Check(opt); err != nil {
				return err
			}
			if s.Timeline {
				n.AttachTimeline(obs.NewTimeline(diffTimelineInterval, diffTimelineSamples))
			}
			if s.Attribution {
				n.AttachAttribution()
			}
			if rec != nil {
				n.Trace(rec)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	rep.Spec = s
	return rep, nil
}

// diffInjected runs one configuration through both simulators, each with
// its own injector from newInj, and compares what Diff compares. attach
// readies the optimized network before its run; it should enable the
// invariant checker, whose findings the report carries.
func diffInjected(top *topo.Topology, lat sim.LinkLatency, cfg sim.Config, load float64,
	newInj func() (sim.Injector, error), attach func(*sim.Network) error) (*DiffReport, error) {
	inj, err := newInj()
	if err != nil {
		return nil, err
	}
	n, err := sim.Build(top, lat, cfg)
	if err != nil {
		return nil, err
	}
	if err := attach(n); err != nil {
		return nil, err
	}
	n.RecordDeliveries()
	rep := &DiffReport{}
	rep.Opt = n.Run(inj, load)
	rep.Violations = n.CheckViolations()
	optHist := n.LatencyHistogram()

	refInj, err := newInj()
	if err != nil {
		return nil, err
	}
	ref, err := Run(top, lat, cfg, refInj, load)
	if err != nil {
		return nil, err
	}
	rep.Ref = ref.Stats
	rep.FirstCapped = ref.FirstCapped

	if rep.Opt != rep.Ref {
		rep.Divergences = append(rep.Divergences,
			fmt.Sprintf("stats differ:\n  optimized %+v\n  reference %+v", rep.Opt, rep.Ref))
	}
	if !optHist.Equal(&ref.Hist) {
		rep.Divergences = append(rep.Divergences, fmt.Sprintf(
			"latency histograms differ: optimized n=%d sum=%g min=%d max=%d, reference n=%d sum=%g min=%d max=%d",
			optHist.Count(), optHist.Sum(), optHist.Min(), optHist.Max(),
			ref.Hist.Count(), ref.Hist.Sum(), ref.Hist.Min(), ref.Hist.Max()))
	}
	if d := diffDeliveries(n.Deliveries(), ref.Deliveries); d != "" {
		rep.Divergences = append(rep.Divergences, d)
	}
	return rep, nil
}

// diffDeliveries compares two delivery multisets (order-insensitively:
// both simulators complete packets in the same order today, but the
// contract is the multiset) and describes the first difference.
func diffDeliveries(opt, ref []sim.Delivery) string {
	if len(opt) != len(ref) {
		return fmt.Sprintf("delivery counts differ: optimized %d, reference %d", len(opt), len(ref))
	}
	o := append([]sim.Delivery(nil), opt...)
	r := append([]sim.Delivery(nil), ref...)
	sortDeliveries(o)
	sortDeliveries(r)
	for i := range o {
		if o[i] != r[i] {
			return fmt.Sprintf("delivery multisets differ at sorted index %d: optimized %+v, reference %+v", i, o[i], r[i])
		}
	}
	return ""
}

func sortDeliveries(d []sim.Delivery) {
	sort.Slice(d, func(i, j int) bool {
		a, b := d[i], d[j]
		if a.Born != b.Born {
			return a.Born < b.Born
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Done != b.Done {
			return a.Done < b.Done
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Size < b.Size
	})
}
