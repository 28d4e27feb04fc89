package harness

import "sync"

// runCells runs n independent experiment cells on a bounded worker pool and
// returns their results in cell order. A cell is one (cluster build,
// measure) unit — a sweep point, an ablation row, a chaos plan — owning a
// private sim.Engine, so cells never share mutable state and running them
// concurrently cannot change any reported number.
//
// Determinism: results land in a slice indexed by cell, and each cell
// records stats into a private collector that is merged into opt.Stats in
// cell order after all cells finish. The only thing opt.Workers changes is
// wall-clock time.
//
// Error handling: a panicking cell stops the pool from dispatching further
// cells; in-flight cells finish, then the panic with the lowest cell index
// is re-raised on the caller's goroutine (so a deterministic failure
// surfaces identically at every worker count). Stats are not merged on
// failure.
func runCells[T any](opt Options, n int, run func(idx int, opt Options) T) []T {
	results := make([]T, n)
	if n == 0 {
		return results
	}
	subs := make([]*StatsCollector, n)
	tsubs := make([]*TelemetryCollector, n)
	cell := func(i int, o Options) {
		if o.Stats != nil {
			subs[i] = NewStatsCollector()
			o.Stats = subs[i]
		}
		if o.Telemetry != nil {
			tsubs[i] = NewTelemetryCollector(o.Telemetry.Interval)
			o.Telemetry = tsubs[i]
		}
		results[i] = run(i, o)
	}

	workers := opt.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			cell(i, opt)
		}
	} else {
		var (
			mu       sync.Mutex
			next     int
			failIdx  = -1
			failWith any
			wg       sync.WaitGroup
		)
		worker := func() {
			defer wg.Done()
			for {
				mu.Lock()
				if failIdx >= 0 || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if failIdx < 0 || i < failIdx {
								failIdx, failWith = i, r
							}
							mu.Unlock()
						}
					}()
					cell(i, opt)
				}()
			}
		}
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go worker()
		}
		wg.Wait()
		if failIdx >= 0 {
			panic(failWith)
		}
	}

	if opt.Stats != nil {
		for _, sub := range subs {
			opt.Stats.merge(sub)
		}
	}
	if opt.Telemetry != nil {
		for _, sub := range tsubs {
			opt.Telemetry.merge(sub)
		}
	}
	return results
}
