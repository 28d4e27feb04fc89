// Package trace emits per-transaction distributed traces of a simulated
// cluster in the Chrome trace-event JSON format (loadable in Perfetto or
// chrome://tracing). Timestamps are *simulated* microseconds taken from
// sim.Time, so a trace shows exactly where simulated time goes: transaction
// phase transitions, message hops between NICs, NIC-core dispatch, DMA
// vector flushes, lock acquire/release, and aborts with their reason.
//
// A nil *Tracer is a valid disabled tracer: every method nil-checks its
// receiver and returns immediately, so instrumented hot paths cost one
// branch and zero allocations when tracing is off. Call sites that build
// argument maps must still guard with Enabled() to keep the disabled path
// allocation-free.
//
// Determinism: events are appended in emission order, which under the
// deterministic simulation engine is non-decreasing simulated time, so the
// same seed produces a byte-identical trace file.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"

	"xenic/internal/sim"
)

// Args is the free-form argument payload of an event. Keys are serialized
// in sorted order so traces are byte-stable.
type Args map[string]any

// Event is one Chrome trace event.
type Event struct {
	Name string // event name ("execute", "frame-tx", ...)
	Cat  string // category ("txn", "net", "dma", "lock", ...)
	Ph   string // phase code: "b"/"e" async, "i" instant, "M" metadata, "C" counter
	TS   sim.Time
	Pid  int    // node id
	Tid  int    // thread lane within the node (NIC core, host thread, ...)
	ID   uint64 // async event correlation id (transaction id)
	Args Args
}

// Tracer accumulates events for one run.
type Tracer struct {
	meta   []Event // "M" metadata events, emitted first
	events []Event
}

// New returns an enabled tracer.
func New() *Tracer { return &Tracer{} }

// Enabled reports whether the tracer records events. Instrumentation that
// allocates (argument maps, formatted names) must be guarded by it.
func (t *Tracer) Enabled() bool { return t != nil }

// Len reports the number of recorded (non-metadata) events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// MetaLen reports the number of recorded metadata events.
func (t *Tracer) MetaLen() int {
	if t == nil {
		return 0
	}
	return len(t.meta)
}

// Events returns the recorded events (metadata excluded) for inspection.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// MetaProcess names a process (node) lane in the trace viewer.
func (t *Tracer) MetaProcess(pid int, name string) {
	if t == nil {
		return
	}
	t.meta = append(t.meta, Event{Name: "process_name", Ph: "M", Pid: pid,
		Args: Args{"name": name}})
}

// MetaThread names a thread lane (NIC core, host thread) within a node.
func (t *Tracer) MetaThread(pid, tid int, name string) {
	if t == nil {
		return
	}
	t.meta = append(t.meta, Event{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
		Args: Args{"name": name}})
}

// BeginAsync opens an async span (nestable start, ph "b") correlated by id.
// Transaction phases use async spans because one transaction migrates
// between NIC cores and hosts.
func (t *Tracer) BeginAsync(cat, name string, id uint64, pid int, ts sim.Time, args Args) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Name: name, Cat: cat, Ph: "b", TS: ts,
		Pid: pid, ID: id, Args: args})
}

// EndAsync closes an async span (nestable end, ph "e").
func (t *Tracer) EndAsync(cat, name string, id uint64, pid int, ts sim.Time, args Args) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Name: name, Cat: cat, Ph: "e", TS: ts,
		Pid: pid, ID: id, Args: args})
}

// Instant records a point event (ph "i", thread scope).
func (t *Tracer) Instant(cat, name string, pid, tid int, ts sim.Time, args Args) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Name: name, Cat: cat, Ph: "i", TS: ts,
		Pid: pid, Tid: tid, Args: args})
}

// Counter records one sample of a counter track (ph "C"); Perfetto draws
// the samples sharing pid and name as one track.
func (t *Tracer) Counter(name string, pid int, ts sim.Time, value float64) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Name: name, Ph: "C", TS: ts, Pid: pid,
		Args: Args{"value": value}})
}

// micros renders a simulated instant as microseconds with nanosecond
// resolution, the unit Chrome traces expect. Fixed-point formatting keeps
// output byte-stable (no float shortest-round-trip surprises).
func micros(ts sim.Time) string {
	ns := int64(ts) / int64(sim.Nanosecond)
	sign := ""
	if ns < 0 {
		sign, ns = "-", -ns
	}
	return fmt.Sprintf("%s%d.%03d", sign, ns/1000, ns%1000)
}

// appendJSONValue appends a JSON encoding of v. Supported argument types
// cover what instrumentation emits; everything else is stringified.
func appendJSONValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		return strconv.AppendQuote(b, x)
	case int:
		return strconv.AppendInt(b, int64(x), 10)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case uint64:
		return strconv.AppendUint(b, x, 10)
	case uint8:
		return strconv.AppendUint(b, uint64(x), 10)
	case bool:
		return strconv.AppendBool(b, x)
	case sim.Time:
		return strconv.AppendQuote(b, x.String())
	case float64:
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	default:
		return strconv.AppendQuote(b, fmt.Sprint(x))
	}
}

// appendEvent appends one trace-event JSON object.
func appendEvent(b []byte, e Event) []byte {
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, e.Name)
	if e.Cat != "" {
		b = append(b, `,"cat":`...)
		b = strconv.AppendQuote(b, e.Cat)
	}
	b = append(b, `,"ph":`...)
	b = strconv.AppendQuote(b, e.Ph)
	if e.Ph != "M" {
		b = append(b, `,"ts":`...)
		b = append(b, micros(e.TS)...)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(e.Pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(e.Tid), 10)
	if e.Ph == "b" || e.Ph == "e" {
		b = append(b, `,"id":`...)
		b = strconv.AppendQuote(b, fmt.Sprintf("%#x", e.ID))
	}
	if e.Ph == "i" {
		b = append(b, `,"s":"t"`...)
	}
	if len(e.Args) > 0 {
		b = append(b, `,"args":{`...)
		keys := make([]string, 0, len(e.Args))
		for k := range e.Args {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, k)
			b = append(b, ':')
			b = appendJSONValue(b, e.Args[k])
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// WriteJSON writes the trace as a Chrome trace-event JSON object
// ({"traceEvents": [...]}), metadata events first, then recorded events in
// emission order.
func (t *Tracer) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	var scratch []byte
	first := true
	emit := func(e Event) error {
		scratch = scratch[:0]
		if !first {
			scratch = append(scratch, ',', '\n')
		}
		first = false
		scratch = appendEvent(scratch, e)
		_, err := bw.Write(scratch)
		return err
	}
	if t != nil {
		for _, e := range t.meta {
			if err := emit(e); err != nil {
				return err
			}
		}
		for _, e := range t.events {
			if err := emit(e); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
