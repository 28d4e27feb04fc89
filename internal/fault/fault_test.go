package fault

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"xenic/internal/model"
	"xenic/internal/sim"
)

func TestParseFullSpec(t *testing.T) {
	p, err := Parse("drop=0.01,dup=0.005,delay=0.05,maxdelay=50us,dmaerr=0.01," +
		"crash=2@4ms,part=1:2@2ms+1ms,stall=0/3@1ms+200us,dmastall=1@2ms+100us," +
		"txntimeout=500us,verbtimeout=100us")
	if err != nil {
		t.Fatal(err)
	}
	if p.DropProb != 0.01 || p.DupProb != 0.005 || p.DelayProb != 0.05 {
		t.Fatalf("frame probs: %+v", p)
	}
	if p.MaxDelay != 50*sim.Microsecond || p.DMAErrProb != 0.01 {
		t.Fatalf("maxdelay/dmaerr: %+v", p)
	}
	if len(p.Crashes) != 1 || p.Crashes[0] != (Crash{Node: 2, At: 4 * sim.Millisecond}) {
		t.Fatalf("crashes: %+v", p.Crashes)
	}
	if len(p.Partitions) != 1 {
		t.Fatalf("partitions: %+v", p.Partitions)
	}
	pt := p.Partitions[0]
	if len(pt.Nodes) != 2 || pt.Nodes[0] != 1 || pt.Nodes[1] != 2 ||
		pt.Start != 2*sim.Millisecond || pt.End != 3*sim.Millisecond {
		t.Fatalf("partition: %+v", pt)
	}
	if len(p.CoreStalls) != 1 || p.CoreStalls[0] != (CoreStall{Node: 0, Core: 3, At: sim.Millisecond, Dur: 200 * sim.Microsecond}) {
		t.Fatalf("core stalls: %+v", p.CoreStalls)
	}
	if len(p.DMAStalls) != 1 || p.DMAStalls[0] != (DMAStall{Node: 1, At: 2 * sim.Millisecond, Dur: 100 * sim.Microsecond}) {
		t.Fatalf("dma stalls: %+v", p.DMAStalls)
	}
	if p.TxnTimeout != 500*sim.Microsecond || p.VerbTimeout != 100*sim.Microsecond {
		t.Fatalf("timeouts: %+v", p)
	}
	if err := p.Validate(4); err != nil {
		t.Fatal(err)
	}
}

func TestParseDefaultsAndErrors(t *testing.T) {
	// delay without maxdelay gets the default bound.
	p, err := Parse("delay=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxDelay != 50*sim.Microsecond {
		t.Fatalf("default maxdelay: %v", p.MaxDelay)
	}
	// Timeout defaults resolve when unset.
	if p.TxnTimeoutOrDefault() != model.DefaultTxnTimeout || p.VerbTimeoutOrDefault() != model.DefaultVerbTimeout {
		t.Fatal("timeout defaults")
	}
	for _, bad := range []string{
		"bogus=1",          // unknown key
		"drop",             // not key=value
		"drop=x",           // bad float
		"crash=2",          // missing @TIME
		"crash=2@4",        // missing duration suffix
		"part=1:2@2ms",     // missing +DUR
		"stall=0@1ms+1us",  // missing /CORE
		"dmastall=1@2ms+x", // bad duration
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestParseRestart(t *testing.T) {
	p, err := Parse("crash=2@500us,restart=2@3ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Restarts) != 1 || p.Restarts[0] != (Restart{Node: 2, At: 3 * sim.Millisecond}) {
		t.Fatalf("restarts: %+v", p.Restarts)
	}
	if err := p.Validate(4); err != nil {
		t.Fatal(err)
	}
	if got := p.String(); !strings.Contains(got, "restart=2@3.000ms") {
		t.Fatalf("String() lost the restart: %s", got)
	}
	// Round-trip: crash-restart-crash-restart of the same node is legal.
	p, err = Parse("crash=1@1ms,restart=1@3ms,crash=1@5ms,restart=1@7ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(4); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"restart=2",        // missing @TIME
		"restart=2@",       // empty time
		"restart=x@3ms",    // bad node
		"restart=2@3bogus", // bad duration
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestValidateRejectsRestartPlans(t *testing.T) {
	for name, spec := range map[string]string{
		"no-failure":   "restart=2@3ms",                           // nothing to restart from
		"before-crash": "crash=2@5ms,restart=2@3ms",               // restart precedes the crash
		"double":       "crash=2@1ms,restart=2@3ms,restart=2@4ms", // no intervening failure
		"duplicate":    "crash=2@1ms,restart=2@3ms,restart=2@3ms", // same instant twice
		"node-oob":     "crash=2@1ms,restart=9@3ms",               // node outside cluster
	} {
		p, err := Parse(spec)
		if err != nil {
			// Rejected at parse time is fine too.
			continue
		}
		if err := p.Validate(4); err == nil {
			t.Errorf("%s (%s) validated", name, spec)
		}
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	for name, p := range map[string]*Plan{
		"prob>1":         {DropProb: 1.5},
		"delay-no-bound": {DelayProb: 0.1},
		"crash-oob":      {Crashes: []Crash{{Node: 9, At: sim.Millisecond}}},
		"part-empty":     {Partitions: []Partition{{Start: 1, End: 2}}},
		"part-inverted":  {Partitions: []Partition{{Nodes: []int{0}, Start: 2, End: 1}}},
		"stall-zero-dur": {CoreStalls: []CoreStall{{Node: 0, Core: 1, At: 1}}},
		"prob-nan":       {DupProb: math.NaN()},
		"crash-negative": {Crashes: []Crash{{Node: 1, At: -sim.Millisecond}}},
		"part-negative":  {Partitions: []Partition{{Nodes: []int{0}, Start: -2, End: 1}}},
		"stall-overflow": {DMAStalls: []DMAStall{{Node: 0, At: math.MaxInt64 - 1, Dur: 2}}},
		"timeout<0":      {TxnTimeout: -sim.Microsecond},
	} {
		if err := p.Validate(4); err == nil {
			t.Errorf("%s validated", name)
		}
	}
}

func TestRandomPlanValidAndDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		a := RandomPlan(seed, 4)
		if err := a.Validate(4); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b := RandomPlan(seed, 4)
		if a.String() != b.String() {
			t.Fatalf("seed %d: plans diverge:\n%s\n%s", seed, a, b)
		}
		if q, err := Parse(specOf(a)); err != nil || !reflect.DeepEqual(q, a) {
			t.Fatalf("seed %d: %q parses to %+v (%v), want %+v", seed, specOf(a), q, err, a)
		}
		// At most two nodes may die (crash or eviction-length partition) so
		// 3-way replication always keeps a replica per shard.
		deaths := len(a.Crashes)
		for _, pt := range a.Partitions {
			if pt.End-pt.Start >= 2*sim.Millisecond {
				deaths += len(pt.Nodes)
			}
		}
		if deaths > 2 {
			t.Fatalf("seed %d: %d deaths: %s", seed, deaths, a)
		}
	}
	if RandomPlan(1, 4).String() == RandomPlan(2, 4).String() {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestInjectorDeterministicStream(t *testing.T) {
	plan := &Plan{DropProb: 0.1, DupProb: 0.1, DelayProb: 0.2, MaxDelay: 10 * sim.Microsecond}
	run := func() []string {
		eng := sim.NewEngine(1)
		in := NewInjector(eng, plan, 7)
		var out []string
		for i := 0; i < 500; i++ {
			drop, dup, delay := in.FrameFate(i%4, (i+1)%4)
			out = append(out, strings.Join([]string{
				map[bool]string{true: "D", false: "-"}[drop],
				map[bool]string{true: "2", false: "-"}[dup],
				delay.String(),
			}, "/"))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fate %d diverges: %s vs %s", i, a[i], b[i])
		}
	}
}

// specOf renders p in Parse's grammar, for a fuzz corpus of generated plans.
func specOf(p *Plan) string {
	ns := func(t sim.Time) string { return fmt.Sprintf("%dns", t/sim.Nanosecond) }
	prob := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	terms := []string{"drop=" + prob(p.DropProb), "dup=" + prob(p.DupProb),
		"delay=" + prob(p.DelayProb), "maxdelay=" + ns(p.MaxDelay), "dmaerr=" + prob(p.DMAErrProb)}
	for _, c := range p.Crashes {
		terms = append(terms, fmt.Sprintf("crash=%d@%s", c.Node, ns(c.At)))
	}
	for _, r := range p.Restarts {
		terms = append(terms, fmt.Sprintf("restart=%d@%s", r.Node, ns(r.At)))
	}
	for _, pt := range p.Partitions {
		nodes := make([]string, len(pt.Nodes))
		for i, n := range pt.Nodes {
			nodes[i] = strconv.Itoa(n)
		}
		terms = append(terms, fmt.Sprintf("part=%s@%s+%s", strings.Join(nodes, ":"), ns(pt.Start), ns(pt.End-pt.Start)))
	}
	for _, st := range p.CoreStalls {
		terms = append(terms, fmt.Sprintf("stall=%d/%d@%s+%s", st.Node, st.Core, ns(st.At), ns(st.Dur)))
	}
	for _, st := range p.DMAStalls {
		terms = append(terms, fmt.Sprintf("dmastall=%d@%s+%s", st.Node, ns(st.At), ns(st.Dur)))
	}
	return strings.Join(terms, ",")
}

// FuzzParse holds Parse and Validate to their contract: Parse never panics,
// and a plan that validates for six nodes has every probability in [0,1]
// and every instant non-negative, so each of its events can be scheduled.
// The seed corpus (run by plain go test) is the plans the CI workflow and
// these tests use, the generated plans, and three that used to validate and
// then panic or run fault-free.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"drop=0.01,dup=0.005,delay=0.05,maxdelay=40us,dmaerr=0.005,crash=2@4ms,part=1@2ms+800us",
		"crash=2@2ms,restart=2@5ms",
		"crash=2@1ms,restart=2@4ms",
		"crash=2@1ms,restart=2@3ms",
		"drop=0.02,dup=0.01",
		"drop=0.01,dup=0.005,delay=0.05,maxdelay=50us,dmaerr=0.01,crash=2@4ms,part=1:2@2ms+1ms," +
			"stall=0/3@1ms+200us,dmastall=1@2ms+100us,txntimeout=500us,verbtimeout=100us",
		"delay=0.1",
		"crash=1@1ms,restart=1@3ms,crash=1@5ms,restart=1@7ms",
		"crash=2@1ms,restart=2@3ms,restart=2@4ms",
		"crash=2@-1ms",
		"crash=1@Infms",
		"drop=NaN",
	} {
		f.Add(spec)
	}
	for seed := int64(0); seed < 32; seed++ {
		f.Add(specOf(RandomPlan(seed, 6)))
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil || p.Validate(6) != nil {
			return
		}
		for _, v := range []float64{p.DropProb, p.DupProb, p.DelayProb, p.DMAErrProb} {
			if !(v >= 0 && v <= 1) {
				t.Fatalf("%q validated with probability %v", spec, v)
			}
		}
		instants := []sim.Time{p.MaxDelay, p.TxnTimeout, p.VerbTimeout}
		for _, c := range p.Crashes {
			instants = append(instants, c.At)
		}
		for _, r := range p.Restarts {
			instants = append(instants, r.At)
		}
		for _, pt := range p.Partitions {
			instants = append(instants, pt.Start, pt.End)
		}
		for _, st := range p.CoreStalls {
			instants = append(instants, st.At, st.At+st.Dur)
		}
		for _, st := range p.DMAStalls {
			instants = append(instants, st.At, st.At+st.Dur)
		}
		for _, at := range instants {
			if at < 0 {
				t.Fatalf("%q validated with instant %v", spec, at)
			}
		}
	})
}
