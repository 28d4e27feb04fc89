package nicrt

import (
	"testing"
)

// chiSquared returns the chi-squared statistic of counts against a uniform
// expectation.
func chiSquared(counts []int, total int) float64 {
	exp := float64(total) / float64(len(counts))
	x := 0.0
	for _, c := range counts {
		d := float64(c) - exp
		x += d * d / exp
	}
	return x
}

// hash64 steers every dispatch decision in this package (frame flows, host
// packets, timer jobs), and its inputs are decidedly low-entropy:
// sequential transaction ids, node*64+core flow labels, small dense workload
// key spaces. A finalizer that left structure in the low bits would pile
// whole workloads onto a few NIC cores. Each stream below is a DISTINCT key
// set (repeats would amplify per-key placement into a guaranteed chi-squared
// failure for any hash) fed through hash64 mod cores; the core histogram
// must pass a chi-squared uniformity test.
//
// Critical values for p=0.001: df=7 -> 24.32, df=15 -> 37.70. A fair hash
// fails each stream one time in a thousand; the streams are fixed, so the
// test is deterministic — it documents that hash64 passes (measured: worst
// stream is the 128 flow labels at 18.5 over 16 cores; the dense-integer
// streams land near 0, i.e. sub-random uniformity), and catches any future
// swap to a weaker mixer.
func TestHash64UniformOverLowEntropyStreams(t *testing.T) {
	const n = 1 << 14
	streams := []struct {
		name string
		keys []uint64
	}{
		{"sequential", nil},      // txn ids from each host's id counter
		{"node-stamped", nil},    // id = node<<48 | seq
		{"flow-labels", nil},     // node*64 + core, tiny dense integers
		{"tpcc-composite", nil},  // table tag | warehouse | district fields
		{"strided-4k", nil},      // page-aligned: all low bits zero
		{"smallbank-pairs", nil}, // two dense account-id regions
	}
	for i := 0; i < n; i++ {
		streams[0].keys = append(streams[0].keys, uint64(i))
		streams[1].keys = append(streams[1].keys, uint64(i%4)<<48|uint64(i/4))
		streams[4].keys = append(streams[4].keys, uint64(i)*4096)
		streams[5].keys = append(streams[5].keys, uint64(i%2)<<32|uint64(i/2))
	}
	for node := 0; node < 16; node++ {
		for core := 0; core < 8; core++ {
			streams[2].keys = append(streams[2].keys, uint64(node*64+core))
		}
	}
	for w := uint64(0); w < 72; w++ {
		for d := uint64(0); d < 10; d++ {
			streams[3].keys = append(streams[3].keys, 3<<56|w<<16|d)
		}
	}
	for _, cores := range []int{8, 16} {
		crit := map[int]float64{8: 24.32, 16: 37.70}[cores]
		for _, s := range streams {
			counts := make([]int, cores)
			for _, k := range s.keys {
				counts[hash64(k)%uint64(cores)]++
			}
			if x := chiSquared(counts, len(s.keys)); x > crit {
				t.Errorf("%s over %d cores: chi-squared %.1f > %.2f (counts %v)",
					s.name, cores, x, crit, counts)
			}
		}
	}
}

// TestHash64NotIdentity pins the property the dispatch paths rely on: the
// finalizer actually mixes (distinct from the identity and from a plain
// multiply), so adjacent keys do not map to adjacent cores.
func TestHash64NotIdentity(t *testing.T) {
	same := 0
	for i := uint64(0); i < 1024; i++ {
		if hash64(i)%8 == i%8 {
			same++
		}
	}
	// A mixing hash agrees with the identity mapping ~1/8 of the time.
	if same > 256 {
		t.Fatalf("hash64 mod 8 matches identity on %d/1024 sequential keys", same)
	}
}

// TestCoreForSkipsStoppedCores pins CoreFor's fall-through: the hash choice
// when live, the next live core otherwise, and the hash choice again (even
// though stopped) when every core is down so callers degrade gracefully.
func TestCoreForSkipsStoppedCores(t *testing.T) {
	eng, _, a, _, _ := twoNICs(t, AllFeatures())
	_ = eng
	k := uint64(12345)
	want := int(hash64(k) % uint64(a.Cores()))
	if got := a.CoreFor(k); got != want {
		t.Fatalf("CoreFor = %d, want hash choice %d", got, want)
	}
	a.StopCore(want)
	next := (want + 1) % a.Cores()
	if got := a.CoreFor(k); got != next {
		t.Fatalf("CoreFor with %d stopped = %d, want %d", want, a.CoreFor(k), next)
	}
	for i := 0; i < a.Cores(); i++ {
		a.StopCore(i)
	}
	if got := a.CoreFor(k); got != want {
		t.Fatalf("CoreFor all-stopped = %d, want hash choice %d", got, want)
	}
}
