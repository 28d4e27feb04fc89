// ab runs the repository's benchmark (bench/, held to BENCHMARK.json) on a
// parent revision and on the working tree in alternating pairs, and says for
// each end-to-end metric whether the working tree moved it. From the
// repository root:
//
//	go run ./cmd/ab HEAD                          # 5 pairs on each of the four workloads
//	go run ./cmd/ab -n 10 -workload tpcc_xenic HEAD~1
//
// REV is unpacked with git archive into a temporary directory, and the bench
// programs of both trees are built there. Every run is one
// `--workload W --seed 1 --seconds S --trace 0` child, S being
// BENCHMARK.json's run_seconds, with GOMAXPROCS and GOGC pinned; pair i runs
// the parent first when i is even and the change first when it is odd, so
// neither side always inherits a warm or a busy machine. For each metric it
// prints both sides' q1/median/q3, the pairs the change won and a verdict
// (see summarize), and for each workload the pairs in which the change
// failed a larger share of its operations.
package main

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
)

// contract is what ab reads of BENCHMARK.json.
type contract struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// result is a run's last line of standard output.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	n := flag.Int("n", 5, "pairs of runs per workload")
	only := flag.String("workload", "", "run only this workload (default: every workload in BENCHMARK.json)")
	if flag.Parse(); flag.NArg() != 1 || *n < 1 {
		fmt.Fprintln(os.Stderr, "usage: go run ./cmd/ab [-n pairs] [-workload W] REV")
		os.Exit(2)
	}
	if err := ab(flag.Arg(0), *only, *n); err != nil {
		fmt.Fprintln(os.Stderr, "ab:", err)
		os.Exit(1)
	}
}

func ab(rev, only string, n int) error {
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	commit, err := git(root, "rev-parse", "--short", rev+"^{commit}")
	if err != nil {
		return err
	}
	var c contract
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(raw, &c)
	}
	if err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if c.RunSeconds <= 0 {
		return fmt.Errorf("BENCHMARK.json: run_seconds %g", c.RunSeconds)
	}
	var workloads []string
	for _, w := range c.Workloads {
		if only == "" || w.Name == only {
			workloads = append(workloads, w.Name)
		}
	}
	if len(workloads) == 0 {
		return fmt.Errorf("no workload %q in BENCHMARK.json", only)
	}

	tmp, err := os.MkdirTemp("", "ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	parentTree := filepath.Join(tmp, "parent")
	if err := unpack(root, commit, parentTree); err != nil {
		return err
	}
	// sides[0] is the parent, sides[1] the working tree.
	sides := [2]struct{ dir, bin string }{
		{filepath.Join(parentTree, "bench"), filepath.Join(tmp, "bench-parent")},
		{filepath.Join(root, "bench"), filepath.Join(tmp, "bench-change")},
	}
	for _, s := range sides {
		build := exec.Command("go", "build", "-o", s.bin, ".")
		build.Dir, build.Stderr = s.dir, os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("building %s: %w", s.dir, err)
		}
	}
	// The benchmark sets GOMAXPROCS to min(2, NumCPU) itself; pinning both
	// here keeps the caller's environment out of the runs.
	procs := min(2, runtime.NumCPU())
	env := append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs), "GOGC=100")

	fmt.Printf("ab: parent %s vs the working tree; %d alternating pairs per workload, each run --seed 1 --seconds %g --trace 0; GOMAXPROCS=%d GOGC=100; %s\n",
		commit, n, c.RunSeconds, procs, runtime.Version())
	for _, w := range workloads {
		// values[side][metric][pair]
		var values [2]map[string][]float64
		var counts [2][]ops
		for side := range values {
			values[side] = map[string][]float64{}
		}
		for pair := 0; pair < n; pair++ {
			for k := 0; k < 2; k++ {
				side := k ^ pair%2
				res, err := run(sides[side].dir, sides[side].bin, env, w, c.RunSeconds)
				if err != nil {
					return fmt.Errorf("%s pair %d, %s: %w", w, pair+1, [2]string{"parent", "change"}[side], err)
				}
				for _, m := range c.EndToEnd {
					v, ok := res.Metrics[m.Name]
					if !ok {
						return fmt.Errorf("%s pair %d: no metric %s", w, pair+1, m.Name)
					}
					values[side][m.Name] = append(values[side][m.Name], v.Value)
				}
				counts[side] = append(counts[side], ops{res.Attempted, res.Failed})
			}
			fmt.Fprintf(os.Stderr, "ab: %s pair %d/%d done\n", w, pair+1, n)
		}
		fmt.Printf("\n== %s\n", w)
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tunit\tparent q1\tmedian\tq3\tchange q1\tmedian\tq3\tchange/parent\tbound\twins\tverdict")
		for _, m := range c.EndToEnd {
			s := summarize(m.Better == "lower", m.Bound, values[0][m.Name], values[1][m.Name])
			verdict := s.verdict
			if s.identical {
				verdict += " (identical)"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.4f\t%g\t%d/%d\t%s\n",
				m.Name, m.Unit, s.parent[0], s.parent[1], s.parent[2], s.change[0], s.change[1], s.change[2],
				s.change[1]/s.parent[1], m.Bound, s.wins, s.pairs, verdict)
		}
		tw.Flush()
		fmt.Printf("failed ops, parent %v, change %v", failedCounts(counts[0]), failedCounts(counts[1]))
		if more := failedMore(counts[0], counts[1]); len(more) > 0 {
			fmt.Printf("; the change failed a larger share in pairs %v", more)
		}
		fmt.Println()
	}
	return nil
}

// run performs one untraced benchmark run of workload w and returns its
// one-line result; a run that is not correct is an error.
func run(dir, bin string, env []string, w string, seconds float64) (*result, error) {
	cmd := exec.Command(bin, "--workload", w, "--seed", "1", "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir, cmd.Env, cmd.Stderr = dir, env, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("last line of output: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reports correct: false")
	}
	return &res, nil
}

// failedCounts lists each run's failed operations.
func failedCounts(runs []ops) []int64 {
	f := make([]int64, len(runs))
	for i, o := range runs {
		f[i] = o.failed
	}
	return f
}

// unpack writes the tree of commit into dir, as git archive produces it.
func unpack(root, commit, dir string) error {
	cmd := exec.Command("git", "archive", "--format=tar", commit)
	cmd.Dir, cmd.Stderr = root, os.Stderr
	archive, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("git archive %s: %w", commit, err)
	}
	tr := tar.NewReader(bytes.NewReader(archive))
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, filepath.FromSlash(h.Name))
		switch h.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(path, 0o755)
		case tar.TypeReg:
			if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
				var data []byte
				if data, err = io.ReadAll(tr); err == nil {
					err = os.WriteFile(path, data, os.FileMode(h.Mode)&0o777)
				}
			}
		case tar.TypeSymlink:
			err = os.Symlink(h.Linkname, path)
		}
		if err != nil {
			return err
		}
	}
}

func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}
