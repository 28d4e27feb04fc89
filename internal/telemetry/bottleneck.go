// The bottleneck analyzer: given one cell's series set, name the resource
// that limited it. The attribution combines two signals — utilization
// ranking (which resource pool ran closest to saturation over the steady
// window) and lock-conflict pressure (the fraction of transaction outcomes
// that were lock aborts) — and cites the phase-latency critical-path shares
// as supporting detail, the same reasoning a person applies when reading the
// counter tracks by hand.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// Verdict is the analyzer's conclusion for one cell.
type Verdict struct {
	// Resource is the limiting resource: "nic-core", "host-core", "dma",
	// "network", "lock", or "load" when nothing is near saturation (the
	// offered load itself is the limit), or "none" when the set is empty.
	Resource string `json:"resource"`
	// Node is the node whose resource saturated (e.g. "node2"), or "" when
	// the verdict is cluster-wide.
	Node string `json:"node,omitempty"`
	// Util is the supporting measurement: mean occupancy of the named
	// resource, or the lock-conflict fraction for "lock" verdicts.
	Util float64 `json:"util"`
	// Detail is a one-line human-readable justification.
	Detail string `json:"detail"`
}

func (v Verdict) String() string {
	if v.Node == "" {
		return fmt.Sprintf("%s (%.0f%%): %s", v.Resource, v.Util*100, v.Detail)
	}
	return fmt.Sprintf("%s@%s (%.0f%%): %s", v.Resource, v.Node, v.Util*100, v.Detail)
}

// Thresholds for attribution. A resource pool is the bottleneck when it is
// the most-utilized pool and runs above satUtil; lock contention wins when
// the worst node aborts more than lockFrac of its outcomes on locks (lock
// pressure caps throughput well below any pool's saturation point, so it is
// checked first).
const (
	satUtil  = 0.5
	lockFrac = 0.2
)

// occupancy series suffixes → the resource names verdicts and Detail
// strings use.
var resourceOf = map[string]string{
	"nic.occupancy":    "nic-core",
	"host.occupancy":   "host-core",
	"dma.occupancy":    "dma",
	"net.tx_occupancy": "network",
}

// steadyMean averages the middle 80% of a series, trimming warm-up and
// tail-off so short transients don't drive the verdict.
func steadyMean(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	lo, hi := n/10, n-n/10
	if hi <= lo {
		lo, hi = 0, n
	}
	sum := 0.0
	for _, v := range vals[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

// splitNode splits "node3.nic.occupancy" into ("node3", "nic.occupancy");
// names without a node prefix return ("", name).
func splitNode(name string) (node, rest string) {
	i := strings.IndexByte(name, '.')
	if i > 4 && strings.HasPrefix(name, "node") {
		return name[:i], name[i+1:]
	}
	return "", name
}

// Analyze names the limiting resource of one cell from its series set.
func Analyze(set *Set) Verdict {
	if set == nil || len(set.TimesUs) == 0 {
		return Verdict{Resource: "none", Detail: "no samples"}
	}

	type pool struct {
		node, res string
		util      float64
	}
	var top pool
	var lockNode string
	var lockWorst float64
	phaseWork := map[string]float64{} // phase → Σ mean_us × rate (critical-path share)
	phaseRate := map[string]*Series{}

	for i := range set.Series {
		s := &set.Series[i]
		node, rest := splitNode(s.Name)
		if res, ok := resourceOf[rest]; ok {
			if u := steadyMean(s.Vals); u > top.util {
				top = pool{node: node, res: res, util: u}
			}
			continue
		}
		if rest == "txn.lock_conflict_frac" {
			if f := steadyMean(s.Vals); f > lockWorst {
				lockWorst, lockNode = f, node
			}
			continue
		}
		if p, ok := strings.CutPrefix(rest, "phase."); ok {
			if name, ok := strings.CutSuffix(p, ".rate"); ok {
				phaseRate[node+"/"+name] = s
			}
		}
	}
	// Second pass for phase means, now that the rates are indexed (series
	// are name-sorted, so x.mean_us precedes x.rate; pairing after the fact
	// avoids depending on that).
	for i := range set.Series {
		s := &set.Series[i]
		node, rest := splitNode(s.Name)
		p, ok := strings.CutPrefix(rest, "phase.")
		if !ok {
			continue
		}
		name, ok := strings.CutSuffix(p, ".mean_us")
		if !ok {
			continue
		}
		r := phaseRate[node+"/"+name]
		if r == nil {
			continue
		}
		n := len(s.Vals)
		if len(r.Vals) < n {
			n = len(r.Vals)
		}
		w := 0.0
		for j := range n {
			w += s.Vals[j] * r.Vals[j]
		}
		phaseWork[name] += w
	}

	topPhase, phaseShare := dominantPhase(phaseWork)
	detailTail := ""
	if topPhase != "" {
		detailTail = fmt.Sprintf("; dominant phase %s (%.0f%% of phase time)", topPhase, phaseShare*100)
	}

	if lockWorst >= lockFrac {
		return Verdict{
			Resource: "lock", Node: lockNode, Util: lockWorst,
			Detail: fmt.Sprintf("%.0f%% of outcomes are lock-conflict aborts on %s%s", lockWorst*100, lockNode, detailTail),
		}
	}
	if top.util >= satUtil {
		return Verdict{
			Resource: top.res, Node: top.node, Util: top.util,
			Detail: fmt.Sprintf("%s pool at %.0f%% mean occupancy on %s%s", top.res, top.util*100, top.node, detailTail),
		}
	}
	return Verdict{
		Resource: "load", Util: top.util,
		Detail: fmt.Sprintf("no pool above %.0f%% occupancy (max %s at %.0f%%)%s", satUtil*100, top.res, top.util*100, detailTail),
	}
}

// dominantPhase returns the phase with the largest critical-path share and
// that share, or ("", 0) when no phase series exist.
func dominantPhase(work map[string]float64) (string, float64) {
	if len(work) == 0 {
		return "", 0
	}
	names := make([]string, 0, len(work))
	total := 0.0
	for n, w := range work {
		names = append(names, n)
		total += w
	}
	sort.Strings(names)
	best, bestW := "", -1.0
	for _, n := range names {
		if work[n] > bestW {
			best, bestW = n, work[n]
		}
	}
	if total <= 0 {
		return "", 0
	}
	return best, bestW / total
}
