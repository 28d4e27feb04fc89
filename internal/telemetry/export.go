// Series export: JSON for machine analysis and Chrome trace-event counter
// tracks for Perfetto. Both are deterministic — series are sorted by name,
// cell labels are sorted, and floats format with strconv's shortest
// round-trip representation — so two identically-seeded runs export
// byte-identical files (the identity manifest pins them).
package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"xenic/internal/sim"
	"xenic/internal/trace"
)

// cellJSON is one cell's telemetry in the JSON export.
type cellJSON struct {
	Cell       string   `json:"cell"`
	Bottleneck *Verdict `json:"bottleneck,omitempty"`
	*Set
}

// fileJSON is the top-level JSON export schema.
type fileJSON struct {
	Schema string     `json:"schema"`
	Cells  []cellJSON `json:"cells"`
}

// SchemaVersion identifies the JSON export layout; bump it when the shape
// changes so downstream tooling can detect drift.
const SchemaVersion = "xenic-telemetry/1"

// WriteJSON writes labelled sets (with per-cell bottleneck verdicts, which
// may be nil) as one indented JSON document. Determinism comes from sorted
// labels and struct-typed encoding — no map iteration reaches the encoder.
func WriteJSON(w io.Writer, sets map[string]*Set, verdicts map[string]*Verdict) error {
	labels := make([]string, 0, len(sets))
	for l := range sets {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	doc := fileJSON{Schema: SchemaVersion}
	for _, l := range labels {
		doc.Cells = append(doc.Cells, cellJSON{Cell: l, Bottleneck: verdicts[l], Set: sets[l]})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// AppendTrace appends set to tr as counter tracks (ph "C"), one per series,
// in time order, and returns the next free pid. Series of node N go under
// process pid0+N with the "nodeN." prefix dropped from the track name; every
// other series (cluster.*, load.*) goes under one "cluster" process after
// the nodes. Processes are named "nodeN" and "cluster", after label and a
// space when label is set. A non-nil verdict becomes a "bottleneck" instant
// at the last sample, on the node it names or else on the cluster process.
func AppendTrace(tr *trace.Tracer, pid0 int, label string, set *Set, v *Verdict) int {
	if label != "" {
		label += " "
	}
	nodes := make([]int, len(set.Series)) // node index, or -1 for cluster-wide
	tracks := make([]string, len(set.Series))
	cluster := pid0
	for i, s := range set.Series {
		var node string
		node, tracks[i] = splitNode(s.Name)
		nodes[i] = nodeIndex(node)
		cluster = max(cluster, pid0+nodes[i]+1)
	}
	pid := func(node int) int {
		if node < 0 {
			return cluster
		}
		return pid0 + node
	}
	for p := pid0; p < cluster; p++ {
		tr.MetaProcess(p, label+"node"+strconv.Itoa(p-pid0))
	}
	tr.MetaProcess(cluster, label+"cluster")
	var ts sim.Time
	for j, us := range set.TimesUs {
		ts = sim.Time(math.Round(us * float64(sim.Microsecond)))
		for i, s := range set.Series {
			tr.Counter(tracks[i], pid(nodes[i]), ts, s.Vals[j])
		}
	}
	if v != nil && len(set.TimesUs) > 0 {
		tr.Instant("telemetry", "bottleneck", pid(nodeIndex(v.Node)), 0, ts, trace.Args{
			"resource": v.Resource, "node": v.Node, "util": v.Util, "detail": v.Detail})
	}
	return cluster + 1
}

// nodeIndex returns N for "nodeN" and -1 for anything else.
func nodeIndex(node string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(node, "node"))
	if err != nil {
		return -1
	}
	return n
}
