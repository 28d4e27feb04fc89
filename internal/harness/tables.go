package harness

import (
	"fmt"
	"math/rand"

	"xenic/internal/cpubench"
	"xenic/internal/store/chained"
	"xenic/internal/store/hopscotch"
	"xenic/internal/store/nicindex"
	"xenic/internal/store/robinhood"
)

func init() {
	register(&Experiment{
		ID:       "table1",
		Title:    "NIC ARM vs host Xeon core performance",
		PaperRef: "Table 1: ~3.3x multi-thread, ~2x single-thread Xeon advantage",
		Run:      runTable1,
	})
	register(&Experiment{
		ID:       "table2",
		Title:    "Remote lookup efficiency at 90% occupancy",
		PaperRef: "Table 2: objects read and roundtrips per lookup",
		Run:      runTable2,
	})
}

func runTable1(opt Options) *Report {
	r := &Report{ID: "table1", Title: "Core benchmark model (calibrated, see cpubench)",
		Header: []string{"benchmark", "cores", "ARM", "Xeon", "ratio"}}
	for _, row := range cpubench.Rows() {
		r.AddRow(row.Kernel, row.Cores,
			fm(row.ARM, "%.1f"), fm(row.Xeon, "%.1f"), fm(row.Ratio, "%.2fx"))
	}
	r.AddNote("normalization constant for §5.6 thread accounting: %.2fx", cpubench.CoremarkRatio())
	return r
}

// table2Row is every Table 2 key's value. The stores adopt the slices they
// are handed and nothing writes one afterwards, so all keys of every
// structure — and parallel cells — share these read-only bytes.
var table2Row = []byte("0123456789ab")

// table2Xenic measures the Robinhood + NIC-index lookup costs.
func table2Xenic(slots, dm, n int, seed int64) (objs, rts float64) {
	cfg := robinhood.DefaultConfig(slots)
	cfg.MaxDisplacement = dm
	cfg.InlineValueSize = 16
	host := robinhood.New(cfg)
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
		if err := host.Insert(keys[i], table2Row, 1); err != nil {
			panic(err)
		}
	}
	idx := nicindex.New(host, 0, 1) // no value cache: pure DMA lookups
	idx.SyncHints()
	for _, k := range keys {
		res := idx.Lookup(k)
		if !res.Found {
			panic("table2: lost key")
		}
		objs += float64(res.ObjectsRead)
		nrt := 0
		for _, rd := range res.Reads() {
			if !rd.Large {
				nrt++
			}
		}
		rts += float64(nrt)
	}
	return objs / float64(n), rts / float64(n)
}

func table2Hopscotch(slots, h, n int, seed int64) (objs, rts float64) {
	t := hopscotch.New(slots, h)
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
		if err := t.Insert(keys[i], table2Row, 1); err != nil {
			panic(err)
		}
	}
	for _, k := range keys {
		res := t.Lookup(k)
		if !res.Found {
			panic("table2: lost key")
		}
		objs += float64(res.ObjectsRead)
		rts += float64(res.Roundtrips)
	}
	return objs / float64(n), rts / float64(n)
}

func table2Chained(slots, b, n int, seed int64) (objs, rts float64) {
	t := chained.New(slots/b, b)
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
		t.Insert(keys[i], table2Row, 1)
	}
	for _, k := range keys {
		res := t.Lookup(k)
		if !res.Found {
			panic("table2: lost key")
		}
		objs += float64(res.ObjectsRead)
		rts += float64(res.Roundtrips)
	}
	return objs / float64(n), rts / float64(n)
}

func runTable2(opt Options) *Report {
	slots := 1 << 23 // 8M keys at 90% of ~9.3M slots
	if opt.Quick {
		slots = 1 << 19
	}
	n := slots * 9 / 10
	r := &Report{ID: "table2", Title: fmt.Sprintf("Lookups over %d uniform keys at 90%% occupancy", n),
		Header: []string{"structure", "objects read", "roundtrips", "paper objs", "paper rts"}}

	// One pool cell per structure: four Robinhood displacement limits,
	// Hopscotch, three chained-bucket sizes.
	dms := []int{8, 16, 32, 0}
	chainedBs := []int{4, 8, 16}
	type lookup struct{ objs, rts float64 }
	res := runCells(opt, len(dms)+1+len(chainedBs), func(i int, o Options) lookup {
		var s lookup
		switch {
		case i < len(dms):
			s.objs, s.rts = table2Xenic(slots, dms[i], n, o.Seed)
		case i == len(dms):
			s.objs, s.rts = table2Hopscotch(slots, 8, n, o.Seed)
		default:
			s.objs, s.rts = table2Chained(slots, chainedBs[i-len(dms)-1], n, o.Seed)
		}
		return s
	})

	cellPair := func(s lookup) (Cell, Cell) {
		return Num(s.objs, fm(s.objs, "%.2f")), Num(s.rts, fm(s.rts, "%.3f"))
	}
	paper := [][2]string{{"3.43", "1.07"}, {"4.13", "1.04"}, {"4.84", "1.02"}, {"6.39", "1"}}
	for i, dm := range dms {
		label := fmt.Sprintf("Xenic Robinhood, Dm=%d", dm)
		if dm == 0 {
			label = "Xenic Robinhood, no limit"
		}
		objs, rts := cellPair(res[i])
		r.AddCells(Text(label), objs, rts, Text(paper[i][0]), Text(paper[i][1]))
	}
	objs, rts := cellPair(res[len(dms)])
	r.AddCells(Text("FaRM Hopscotch, H=8"), objs, rts, Text(">8"), Text("1.04"))
	paperC := [][2]string{{"4.65", "1.16"}, {"8.81", "1.10"}, {"16.96", "1.06"}}
	for i, b := range chainedBs {
		objs, rts := cellPair(res[len(dms)+1+i])
		r.AddCells(Text(fmt.Sprintf("DrTM+H Chained, B=%d", b)), objs, rts,
			Text(paperC[i][0]), Text(paperC[i][1]))
	}
	r.AddNote("Xenic rows read ~1 object more than the paper: our reads cover d_i+k+1 slots (conservative staleness slack); orderings and the <H=8 property hold")
	return r
}
