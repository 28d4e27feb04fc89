package harness

import (
	"fmt"

	"xenic"
	"xenic/internal/core"
	"xenic/internal/fault"
	"xenic/internal/sim"
	"xenic/internal/workload/smallbank"
)

// availability drives a fixed offered load through the full failure→healing
// loop — crash, lease lapse, promotion, restart, state transfer, atomic
// re-admission — and reports the throughput/abort-rate time series plus the
// time to restore the replication factor. It is the availability story of
// §4.2.1 made measurable: the cluster keeps committing while degraded, and
// a restarted node re-replicates without pausing the primaries.

func init() {
	register(&Experiment{
		ID:       "availability",
		Title:    "Offered load through crash -> promotion -> restart -> re-replication",
		PaperRef: "§4.2.1 reconfiguration; DESIGN.md §10: rejoin and re-replication",
		Run:      runAvailability,
	})
}

// availBucket is one time-series sample of the availability run.
type availBucket struct {
	at        sim.Time // bucket end, in simulated time
	tput      float64  // committed txn/s during the bucket
	aborts    int64    // abort events during the bucket
	abortFrac float64  // aborts / (commits + aborts), 0 when idle
	epoch     int      // membership view epoch at the bucket end
	repl      int      // min live replicas over shards at the bucket end
}

// availOutcome is one availability run, summarized.
type availOutcome struct {
	series     []availBucket
	preTput    float64  // steady-state throughput before the crash
	postTput   float64  // steady-state throughput after replication restored
	crashAt    sim.Time // when the node dies
	restartAt  sim.Time // when it restarts
	restoredAt sim.Time // first bucket end at full replication after the dip (0: never)
	drained    bool
	err        error
}

// recoveryRatio is postTput/preTput — how much of the pre-crash steady
// state the healed cluster sustains.
func (o *availOutcome) recoveryRatio() float64 {
	if o.preTput == 0 {
		return 0
	}
	return o.postTput / o.preTput
}

// availabilityCell runs one crash→restart timeline under constant offered
// load, sampling throughput, abort rate, view epoch, and the minimum live
// replication factor every bucket.
func availabilityCell(opt Options, seed int64) availOutcome {
	const (
		nodes     = 4
		victim    = 2
		bucket    = 500 * sim.Microsecond
		crashAt   = 5 * sim.Millisecond
		restartAt = 12 * sim.Millisecond
	)
	total := 40 * sim.Millisecond
	accounts := 10000
	if opt.Quick {
		total = 30 * sim.Millisecond
		accounts = 2000
	}

	out := availOutcome{crashAt: crashAt, restartAt: restartAt}
	g := smallbank.New()
	g.AccountsPerServer = accounts
	plan, err := fault.Parse(fmt.Sprintf("crash=%d@%dus,restart=%d@%dus",
		victim, crashAt/sim.Microsecond, victim, restartAt/sim.Microsecond))
	if err != nil {
		out.err = err
		return out
	}
	cfg := core.DefaultConfig()
	cfg.Nodes = nodes
	cfg.Replication = 3
	cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores = 2, 2, 4
	cfg.Outstanding = 8
	cfg.Seed = seed
	cfg.Faults = plan
	// The sampler sees the whole crash→restore arc; it is stopped before the
	// drain so the series end with the measured timeline.
	tel, reg := opt.Telemetry.Sampler(), opt.Stats.Registry()
	cl, err := xenic.NewCluster(cfg, g, xenic.WithTelemetry(tel), xenic.WithStats(reg))
	if err != nil {
		out.err = err
		return out
	}

	minRepl := func() int {
		v := cl.View()
		min := cfg.Replication
		for s := 0; s < nodes; s++ {
			// Count replicas on nodes that are actually up: the view lags a
			// crash by the lease lapse, and a dead backup replicates nothing.
			r := 0
			if cl.Node(v.PrimaryOf[s]).Alive() {
				r++
			}
			for _, b := range v.BackupsOf[s] {
				if cl.Node(b).Alive() {
					r++
				}
			}
			if r < min {
				min = r
			}
		}
		return min
	}
	snap := func() (int64, int64) {
		var committed, aborts int64
		for i := 0; i < cl.Nodes(); i++ {
			s := cl.Node(i).Stats()
			committed += s.Committed
			aborts += s.Aborts
		}
		return committed, aborts
	}

	cl.Start()
	dipped := false
	lastC, lastA := int64(0), int64(0)
	for at := bucket; at <= total; at += bucket {
		cl.Run(bucket)
		c, a := snap()
		dc, da := c-lastC, a-lastA
		lastC, lastA = c, a
		b := availBucket{
			at:     cl.Engine().Now(),
			tput:   float64(dc) / bucket.Seconds(),
			aborts: da,
			epoch:  cl.View().Epoch,
			repl:   minRepl(),
		}
		if dc+da > 0 {
			b.abortFrac = float64(da) / float64(dc+da)
		}
		if b.repl < cfg.Replication {
			dipped = true
		} else if dipped && out.restoredAt == 0 {
			out.restoredAt = b.at
		}
		out.series = append(out.series, b)
	}

	// Steady states: before the crash (skipping the first millisecond of
	// closed-loop ramp-up) and after replication is restored (skipping one
	// bucket of admission transient).
	var preSum, postSum float64
	var preN, postN int
	for _, b := range out.series {
		switch {
		case b.at > 1*sim.Millisecond && b.at <= crashAt:
			preSum += b.tput
			preN++
		case out.restoredAt != 0 && b.at > out.restoredAt+bucket:
			postSum += b.tput
			postN++
		}
	}
	if preN > 0 {
		out.preTput = preSum / float64(preN)
	}
	if postN > 0 {
		out.postTput = postSum / float64(postN)
	}

	opt.Telemetry.Done("availability", tel)
	out.drained = cl.Drain(800 * sim.Millisecond)
	if !out.drained {
		out.err = fmt.Errorf("did not drain")
		return out
	}
	if err := cl.CheckInvariants(); err != nil {
		out.err = err
		return out
	}
	if err := cl.ReplicasConsistent(); err != nil {
		out.err = err
		return out
	}
	opt.Stats.Done("availability", reg)
	return out
}

func runAvailability(opt Options) *Report {
	outs := runCells(opt, 1, func(i int, o Options) availOutcome {
		return availabilityCell(o, o.Seed)
	})
	return availabilityReport(opt, outs[0])
}

// availabilityReport renders one availability run: the time series, the
// restore and recovery notes, and the bottleneck verdicts when opt collected
// telemetry.
func availabilityReport(opt Options, out availOutcome) *Report {
	r := &Report{ID: "availability",
		Title:  "Fixed offered load through crash, promotion, restart, re-replication",
		Header: []string{"t", "tput", "aborts", "abort%", "epoch", "repl"}}
	for _, b := range out.series {
		r.AddCells(Micros(b.at), Tput(b.tput), Count(int(b.aborts)),
			Num(b.abortFrac*100, fmt.Sprintf("%.1f%%", b.abortFrac*100)),
			Count(b.epoch), Count(b.repl))
	}

	r.AddNote("node crashes at %v, restarts at %v; lease lapse evicts it and promotes a backup in between", us(out.crashAt), us(out.restartAt))
	if out.restoredAt != 0 {
		r.AddNote("replication factor restored at %s: %s after the crash, %s after the restart",
			us(out.restoredAt), us(out.restoredAt-out.crashAt), us(out.restoredAt-out.restartAt))
	} else {
		r.AddNote("FAILURE: replication factor never restored")
	}
	r.AddNote("steady-state throughput: %s pre-crash, %s post-rejoin (%.0f%% recovered)",
		ktps(out.preTput), ktps(out.postTput), out.recoveryRatio()*100)
	if out.err != nil {
		r.AddNote("FAILURE: %v", out.err)
	} else {
		r.AddNote("drained; store invariants and replica consistency (including the rebuilt replicas) verified")
	}
	r.AddNote("fault-mode throughput is sim-relative: the series shape is the result, not the absolute rate")
	finishTelemetry(r, opt)
	if len(r.Bottlenecks) > 0 {
		r.AddNote("telemetry: crash -> restore arc recorded (cluster.alive / cluster.epoch counter tracks in the telemetry trace)")
	}
	return r
}
