package main

import (
	"math/rand"
	"runtime"
	"time"

	"xenic"
	"xenic/internal/core"
	"xenic/internal/metrics"
	"xenic/internal/model"
	"xenic/internal/pcie"
	"xenic/internal/sim"
	"xenic/internal/simnet"
	"xenic/internal/store/btree"
	"xenic/internal/store/nicindex"
	"xenic/internal/wire"
)

// Family 3: driver loops over the leaf packages' exported functions, with
// fixed iteration counts (no auto-calibration, so the whole family stays
// within a few seconds and two runs do the same work). Key- and
// transaction-taking operations are fed this workload's generator output
// over this workload's populated shard, so sizes and the hit/miss mix follow
// the workload; a store the workload does not use reads 0. The loops stop at
// leaf packages: core and baseline internals are covered by the profile
// shares and the simulated counters through the stable root API.

// timeOp runs op n times and returns host ns and heap allocations per call.
func timeOp(n int, op func(i int)) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	d := time.Since(t)
	runtime.ReadMemStats(&m1)
	return float64(d.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// sample is one workload's populated shard 0 and generator output.
type sample struct {
	shard  *core.ShardData
	spec   xenic.StoreSpec
	reqs   []*wire.TxnRequest // one per generated transaction
	hash   []uint64           // generated keys present in shard 0's hash table
	absent []uint64           // keys absent from it
	tree   []uint64           // generated keys present in shard 0's B+tree
	gen    xenic.Workload
}

const sampleTxns = 4096

func newSample(w *workload, seed int64) *sample {
	gen := w.gen()
	place := gen.Placement(nodes, 3)
	s := &sample{shard: core.NewShardData(gen.Spec(), place), spec: gen.Spec(), gen: gen}
	gen.Populate(0, nodes, func(key uint64, val []byte) {
		s.shard.Apply(wire.KV{Key: key, Version: 1, Value: val})
	})
	rng := rand.New(rand.NewSource(seed))
	seen := map[uint64]bool{}
	add := func(key uint64) {
		if seen[key] || place.ShardOf(key) != 0 {
			return
		}
		seen[key] = true
		if place.IsBTree(key) {
			if _, ok := s.shard.BTree.Get(key); ok {
				s.tree = append(s.tree, key)
			}
		} else if s.shard.Hash.Lookup(key).Found {
			s.hash = append(s.hash, key)
			if miss := key ^ 1<<62; !s.shard.Hash.Lookup(miss).Found {
				s.absent = append(s.absent, miss)
			}
		}
	}
	for i := 0; i < sampleTxns; i++ {
		// Node 0's threads: its transactions touch shard 0 most.
		d := gen.Next(0, i%2, rng)
		req := &wire.TxnRequest{
			Header:   wire.Header{TxnID: uint64(i + 1)},
			FnID:     d.FnID,
			ReadKeys: d.ReadKeys, WriteKeys: d.UpdateKeys, WriteSet: d.BlindWrites,
			ExecState: d.State,
		}
		s.reqs = append(s.reqs, req)
		for _, k := range d.ReadKeys {
			add(k)
		}
		for _, k := range d.UpdateKeys {
			add(k)
		}
	}
	return s
}

func driverLoops(w *workload, rec *record, out map[string]float64) {
	// Iteration counts scale with --seconds like every other size here.
	iters := func(base int) int { return max(int(float64(base)*rec.Seconds/referenceSeconds), 1000) }
	nop := func() {}

	eng := sim.NewEngine(1)
	out["sim.schedule_ns"], out["sim.schedule_allocs"] = timeOp(iters(2_000_000), func(int) {
		eng.At(eng.Now()+1, nop)
		eng.Step()
	})
	deep := sim.NewEngine(1)
	for i := 0; i < 4096; i++ {
		deep.At(sim.Second+sim.Time(i), nop)
	}
	out["sim.schedule_deep_ns"], _ = timeOp(iters(2_000_000), func(int) {
		deep.At(deep.Now()+1, nop)
		deep.Step()
	})

	// One frame's life cycle: NewFrame, Send, delivery, Recycle.
	neng := sim.NewEngine(1)
	nw := simnet.New(neng, model.Default(), 2)
	nw.Attach(0, func(*simnet.Frame) {})
	nw.Attach(1, func(f *simnet.Frame) { nw.Recycle(f) })
	msg := struct{ x int }{42}
	out["simnet.frame_ns"], out["simnet.frame_allocs"] = timeOp(iters(1_000_000), func(int) {
		f := nw.NewFrame()
		f.Src, f.Dst, f.PayloadBytes, f.Flow = 0, 1, 256, 7
		f.Msgs = append(f.Msgs, &msg)
		nw.Send(f)
		neng.RunAll()
	})

	// The baselines have no SmartNIC: no DMA engine, NIC index or Robin Hood
	// shard, so those loops read 0 there like any layer a workload leaves idle.
	xenicPath := w.System == "xenic"
	if xenicPath {
		// One DMA vector submission plus its completion.
		deng := sim.NewEngine(1)
		dma := pcie.New(deng, model.Default())
		vec := &pcie.Vector{Write: true, Sizes: []int{64, 128, 256, 512}, Complete: nop}
		out["pcie.submit_ns"], out["pcie.submit_allocs"] = timeOp(iters(1_000_000), func(int) {
			dma.Submit(0, vec)
			deng.RunAll()
		})
	}

	s := newSample(w, rec.Seed)

	// wire: this workload's transaction requests.
	var buf []byte
	marshalNs, marshalAllocs := timeOp(iters(1_000_000), func(i int) {
		buf = s.reqs[i%len(s.reqs)].Marshal(buf[:0])
	})
	encoded := make([][]byte, len(s.reqs))
	for i, r := range s.reqs {
		encoded[i] = r.Marshal(nil)
	}
	unmarshalNs, unmarshalAllocs := timeOp(iters(500_000), func(i int) {
		if _, err := wire.Unmarshal(encoded[i%len(encoded)]); err != nil {
			rec.fail("wire driver: %v", err)
		}
	})
	out["wire.marshal_ns"], out["wire.unmarshal_ns"] = marshalNs, unmarshalNs
	out["wire.roundtrip_allocs"] = marshalAllocs + unmarshalAllocs

	// workload: the generator itself.
	rng := rand.New(rand.NewSource(rec.Seed))
	out["workload.next_ns"], out["workload.next_allocs"] = timeOp(iters(500_000), func(i int) {
		s.gen.Next(i%nodes, i%2, rng)
	})

	if xenicPath && len(s.hash) > 0 {
		hashLoops(s, rec, iters, out)
	}
	if len(s.tree) > 0 {
		out["store.btree.get_ns"], _ = timeOp(iters(1_000_000), func(i int) {
			s.shard.BTree.Get(s.tree[i%len(s.tree)])
		})
		// Inserts of fresh keys into a tree that starts empty.
		t := btree.New()
		val := make([]byte, 64)
		out["store.btree.insert_ns"], _ = timeOp(iters(500_000), func(i int) {
			t.Insert(s.tree[i%len(s.tree)]+uint64(i)<<40, val, 1)
		})
	}

	h := metrics.NewHistogram()
	lats := make([]xenic.Time, 1024)
	for i := range lats {
		lats[i] = xenic.Time(5+rng.ExpFloat64()*20) * xenic.Microsecond
	}
	out["metrics.hist_record_ns"], _ = timeOp(iters(2_000_000), func(i int) { h.Record(lats[i&1023]) })
}

// hashLoops drives the hash-table side of the store over the sampled keys:
// the host Robin Hood table, the NIC index over it, and the shard wrapper
// that applies committed writes.
func hashLoops(s *sample, rec *record, iters func(int) int, out map[string]float64) {
	tbl := s.shard.Hash
	key := func(i int) uint64 { return s.hash[i%len(s.hash)] }
	out["store.robinhood.lookup_hit_ns"], _ = timeOp(iters(2_000_000), func(i int) { tbl.Lookup(key(i)) })
	if len(s.absent) > 0 {
		out["store.robinhood.lookup_miss_ns"], _ = timeOp(iters(2_000_000), func(i int) {
			tbl.Lookup(s.absent[i%len(s.absent)])
		})
	}
	val := append([]byte(nil), tbl.Lookup(key(0)).Value...)

	// NIC index at the workload's cache capacity. A first pass fills the
	// cache (up to capacity) with the sampled keys, so timed lookups hit.
	capacity := s.spec.NICCacheObjects
	if capacity <= 0 {
		capacity = s.spec.HashSlots / 4
	}
	idx := nicindex.New(tbl, capacity, 1)
	idx.SyncHints()
	hot := s.hash[:min(len(s.hash), capacity)]
	for _, k := range hot {
		idx.Lookup(k)
	}
	out["store.nicindex.lookup_hit_ns"], _ = timeOp(iters(2_000_000), func(i int) { idx.Lookup(hot[i%len(hot)]) })
	// A 16-entry cache cycled over many more keys: every lookup misses,
	// reads the host table and evicts.
	cold := nicindex.New(tbl, 16, 1)
	cold.SyncHints()
	if len(s.hash) > 64 {
		out["store.nicindex.lookup_miss_ns"], _ = timeOp(iters(500_000), func(i int) { cold.Lookup(key(i)) })
	}
	out["store.nicindex.lock_unlock_ns"], _ = timeOp(iters(1_000_000), func(i int) {
		idx.TryLock(key(i), 7)
		idx.Unlock(key(i), 7)
	})
	// The commit sequence a primary's index sees per written key.
	out["store.nicindex.apply_commit_ns"], _ = timeOp(iters(1_000_000), func(i int) {
		k := key(i)
		idx.TryLock(k, 7)
		idx.ApplyCommit(k, val, uint64(i)+2)
		idx.Unpin(k)
		idx.Unlock(k, 7)
	})

	// Version numbers keep rising so every apply installs.
	ver := uint64(1 << 32)
	out["store.robinhood.upsert_ns"], _ = timeOp(iters(1_000_000), func(i int) {
		ver++
		if err := tbl.Insert(key(i), val, ver); err != nil {
			rec.fail("robinhood driver: %v", err)
		}
	})
	out["core.shard_apply_ns"], out["core.shard_apply_allocs"] = timeOp(iters(1_000_000), func(i int) {
		ver++
		s.shard.Apply(wire.KV{Key: key(i), Version: ver, Value: val})
	})
	out["core.shard_apply_ts_ns"], _ = timeOp(iters(1_000_000), func(i int) {
		ver++
		s.shard.ApplyTS(wire.KV{Key: key(i), Version: ver, Value: val}, ver, 8, ver-1)
	})
}
