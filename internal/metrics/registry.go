package metrics

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
)

// Registry is a cluster-wide stats registry: components register named
// counters, gauges, and histograms into it, and a single Snapshot call
// renders everything as one JSON document per run.
//
// Names are dotted paths ("node3.nicindex.cache_hits"); Sub returns a
// prefixed view so each node and component registers under its own scope
// without knowing the full path. A nil *Registry is a valid disabled
// registry: registration becomes a no-op and the returned instruments still
// work, so components register unconditionally.
//
// Values are captured lazily: each entry is a function sampled at Snapshot
// time, so registering costs nothing on hot paths and snapshots always see
// current state.
type Registry struct {
	prefix string
	core   *regCore
}

type regCore struct {
	names []string
	fns   map[string]func() any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{core: &regCore{fns: map[string]func() any{}}}
}

// Sub returns a view of the registry that prefixes every name with scope
// and a dot. Sub on a nil registry returns nil.
func (r *Registry) Sub(scope string) *Registry {
	if r == nil {
		return nil
	}
	return &Registry{prefix: r.prefix + scope + ".", core: r.core}
}

// RegisterFunc registers a snapshot function under name. The function runs
// at every Snapshot; it must return a JSON-marshalable value. Re-registering
// a name replaces the previous function.
func (r *Registry) RegisterFunc(name string, fn func() any) {
	if r == nil {
		return
	}
	full := r.prefix + name
	if _, dup := r.core.fns[full]; !dup {
		r.core.names = append(r.core.names, full)
	}
	r.core.fns[full] = fn
}

// RegCounter is a registered monotonic counter.
type RegCounter struct{ n int64 }

// Inc adds 1.
func (c *RegCounter) Inc() { c.n++ }

// Add adds delta.
func (c *RegCounter) Add(delta int64) { c.n += delta }

// Value reports the current count.
func (c *RegCounter) Value() int64 { return c.n }

// Counter registers and returns a named counter. On a nil registry the
// counter still works; it is just never snapshotted.
func (r *Registry) Counter(name string) *RegCounter {
	c := &RegCounter{}
	r.RegisterFunc(name, func() any { return c.n })
	return c
}

// Gauge registers a value sampled at snapshot time.
func (r *Registry) Gauge(name string, fn func() float64) {
	r.RegisterFunc(name, func() any { return fn() })
}

// RegisterHistogram registers an existing latency histogram; its quantile
// summary lands in the snapshot.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	r.RegisterFunc(name, func() any { return h.Snapshot() })
}

// Histogram creates, registers, and returns a named latency histogram.
func (r *Registry) Histogram(name string) *Histogram {
	h := NewHistogram()
	r.RegisterHistogram(name, h)
	return h
}

// RegisterIntHist registers an existing integer-distribution histogram.
func (r *Registry) RegisterIntHist(name string, h *IntHist) {
	r.RegisterFunc(name, func() any { return h.Snapshot() })
}

// Snapshot samples every registered entry into one flat document keyed by
// full dotted name, in sorted order.
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	if r == nil {
		return out
	}
	for _, name := range r.core.names {
		out[name] = r.core.fns[name]()
	}
	return out
}

// Names lists registered entry names in sorted order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	out := append([]string(nil), r.core.names...)
	sort.Strings(out)
	return out
}

// WriteJSON renders the snapshot as an indented JSON object with sorted
// keys (one line per entry), the per-run stats document.
func (r *Registry) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\n"); err != nil {
		return err
	}
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		v, err := json.Marshal(snap[n])
		if err != nil {
			return err
		}
		key, _ := json.Marshal(n)
		line := "  " + string(key) + ": " + string(v)
		if i < len(names)-1 {
			line += ","
		}
		if _, err := bw.WriteString(line + "\n"); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
