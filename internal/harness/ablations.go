package harness

import (
	"fmt"
	"math/rand"

	"xenic"
	"xenic/internal/core"
	"xenic/internal/sim"
	"xenic/internal/store/nicindex"
	"xenic/internal/store/robinhood"
	"xenic/internal/workload/retwis"
)

// Ablations beyond the paper's figures, for the design choices §4.1 and
// §4.3.3 discuss qualitatively:
//
//   - ablate-cache: SmartNIC index cache capacity vs Retwis throughput and
//     latency ("Xenic uses SmartNIC memory to cache objects, adapting to
//     available capacity... misses incur PCIe bandwidth overhead").
//   - ablate-dm: the displacement limit's effect on per-lookup PCIe bytes
//     and overflow rate (extends Table 2 with the bandwidth dimension).
//   - ablate-k: the d_i hint slack k under concurrent insertions ("we set
//     k = 1 based on experimentation", §4.1.3).

func init() {
	register(&Experiment{
		ID:       "ablate-cache",
		Title:    "SmartNIC cache capacity vs Retwis performance",
		PaperRef: "§4.3.3: cache misses turn into DMA lookups and PCIe bandwidth",
		Run:      runAblateCache,
	})
	register(&Experiment{
		ID:       "ablate-dm",
		Title:    "Displacement limit Dm vs lookup PCIe bytes and overflow",
		PaperRef: "§4.1.2/§4.1.4: Dm bounds probe-read size at the cost of overflow roundtrips",
		Run:      runAblateDm,
	})
	register(&Experiment{
		ID:       "ablate-k",
		Title:    "Hint slack k vs second-read rate under insertions",
		PaperRef: "§4.1.3: d_i is rarely invalidated by more than one, so k=1",
		Run:      runAblateK,
	})
}

func runAblateCache(opt Options) *Report {
	warm, win := 3*sim.Millisecond, 8*sim.Millisecond
	keys := 250_000
	fracs := []float64{0.02, 0.05, 0.125, 0.25, 0.5}
	if opt.Quick {
		warm, win = 1*sim.Millisecond, 3*sim.Millisecond
		keys = 40_000
		fracs = []float64{0.02, 0.25}
	}
	r := &Report{ID: "ablate-cache", Title: "Retwis vs NIC cache capacity",
		Header: []string{"cache/keys", "tput/server", "median", "cache hit rate"}}
	type sample struct {
		res Result
		hr  float64
	}
	samples := runCells(opt, len(fracs), func(i int, o Options) sample {
		f := fracs[i]
		build := func(opts ...xenic.Option) (*xenic.Cluster, error) {
			g := retwis.New()
			g.KeysPerServer = keys
			g.CacheObjects = int(float64(keys) * f)
			cfg := core.DefaultConfig()
			cfg.AppThreads, cfg.WorkerThreads, cfg.NICCores = 2, 3, 16
			cfg.Outstanding = 32
			cfg.Seed = o.Seed
			return xenic.NewCluster(cfg, g, opts...)
		}
		return measured(o, fmt.Sprintf("ablate-cache/%.3f", f), build, func(cl *xenic.Cluster) sample {
			res := cl.Measure(warm, win)
			var hits, lookups int64
			for i := 0; i < cl.Nodes(); i++ {
				s := cl.Node(i).Index().Stats()
				hits += s.CacheHits
				lookups += s.Lookups
			}
			hr := 0.0
			if lookups > 0 {
				hr = float64(hits) / float64(lookups)
			}
			return sample{res: res, hr: hr}
		})
	})
	for i, f := range fracs {
		s := samples[i]
		r.AddCells(Num(f, fmt.Sprintf("%.3f", f)), Tput(s.res.PerServerTput),
			Micros(s.res.Median), Num(100*s.hr, fmt.Sprintf("%.1f%%", 100*s.hr)))
	}
	r.AddNote("smaller caches push lookups onto the DMA path; the async pipeline hides the misses until PCIe bandwidth saturates (§4.3.2-4.3.3)")
	finishTelemetry(r, opt)
	return r
}

func runAblateDm(opt Options) *Report {
	slots := 1 << 21
	if opt.Quick {
		slots = 1 << 18
	}
	n := slots * 9 / 10
	r := &Report{ID: "ablate-dm", Title: fmt.Sprintf("Robinhood Dm sweep, %d keys at 90%%", n),
		Header: []string{"Dm", "bytes/lookup (PCIe)", "roundtrips", "overflow %"}}
	dms := []int{4, 8, 16, 32, 64, 0}
	type sample struct {
		bytesPer, rtsPer, overflow float64
	}
	samples := runCells(opt, len(dms), func(i int, o Options) sample {
		dm := dms[i]
		cfg := robinhood.DefaultConfig(slots)
		cfg.MaxDisplacement = dm
		cfg.InlineValueSize = 64
		host := robinhood.New(cfg)
		rng := rand.New(rand.NewSource(o.Seed))
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64()
			if err := host.Insert(keys[i], make([]byte, 64), 1); err != nil {
				panic(err)
			}
		}
		idx := nicindex.New(host, 0, 1)
		idx.SyncHints()
		var bytes, rts int64
		for _, k := range keys {
			res := idx.Lookup(k)
			for _, rd := range res.Reads {
				bytes += int64(rd.Bytes)
				if !rd.Large {
					rts++
				}
			}
		}
		return sample{
			bytesPer: float64(bytes) / float64(n),
			rtsPer:   float64(rts) / float64(n),
			overflow: 100 * float64(host.Stats().Overflows) / float64(n),
		}
	})
	for i, dm := range dms {
		s := samples[i]
		label := fmt.Sprintf("%d", dm)
		if dm == 0 {
			label = "none"
		}
		r.AddCells(Text(label),
			Num(s.bytesPer, fmt.Sprintf("%.0f", s.bytesPer)),
			Num(s.rtsPer, fmt.Sprintf("%.3f", s.rtsPer)),
			Num(s.overflow, fmt.Sprintf("%.2f%%", s.overflow)))
	}
	r.AddNote("small Dm trades probe bytes for overflow roundtrips; the paper picks Dm in the 8-32 range (Table 2)")
	return r
}

func runAblateK(opt Options) *Report {
	slots := 1 << 20
	if opt.Quick {
		slots = 1 << 17
	}
	r := &Report{ID: "ablate-k", Title: "Hint slack under concurrent insertions",
		Header: []string{"k", "second-read rate", "objects/lookup"}}
	ks := []int{0, 1, 2, 4}
	type sample struct {
		rate, objsPer float64
	}
	samples := runCells(opt, len(ks), func(i int, o Options) sample {
		k := ks[i]
		cfg := robinhood.DefaultConfig(slots)
		cfg.MaxDisplacement = 32
		host := robinhood.New(cfg)
		rng := rand.New(rand.NewSource(o.Seed))
		// Load to 85%, sync hints, then interleave inserts (which go
		// stale-ify hints) with lookups.
		base := slots * 85 / 100
		keys := make([]uint64, 0, base)
		for i := 0; i < base; i++ {
			kk := rng.Uint64()
			if err := host.Insert(kk, make([]byte, 16), 1); err != nil {
				panic(err)
			}
			keys = append(keys, kk)
		}
		idx := nicindex.New(host, 0, k)
		idx.SyncHints()
		extra := slots * 5 / 100
		var lookups, objs int64
		for i := 0; i < extra; i++ {
			kk := rng.Uint64()
			if err := host.Insert(kk, make([]byte, 16), 1); err != nil {
				panic(err)
			}
			keys = append(keys, kk)
			// A handful of lookups per insertion, as a running workload
			// would issue.
			for j := 0; j < 4; j++ {
				res := idx.Lookup(keys[rng.Intn(len(keys))])
				if !res.Found {
					panic("ablate-k: lost key")
				}
				if !res.CacheHit {
					lookups++
					objs += int64(res.ObjectsRead)
				}
			}
		}
		st := idx.Stats()
		rate := 0.0
		if st.DMALookups > 0 {
			rate = float64(st.SecondReads) / float64(st.DMALookups)
		}
		return sample{rate: 100 * rate, objsPer: float64(objs) / float64(lookups)}
	})
	for i, k := range ks {
		s := samples[i]
		r.AddCells(Count(k),
			Num(s.rate, fmt.Sprintf("%.3f%%", s.rate)),
			Num(s.objsPer, fmt.Sprintf("%.2f", s.objsPer)))
	}
	r.AddNote("k=0 pays frequent second reads when insertions raise displacements; k>=2 reads extra objects on every lookup — k=1 balances (§4.1.3)")
	return r
}
