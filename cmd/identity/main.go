// identity checks every output of xenic-sim and xenic-bench against the
// SHA-256 hashes in testdata/identity.json. From the repository root:
//
//	go run ./cmd/identity                    # check the tree against the manifest
//	go run ./cmd/identity -update "reason"   # re-record every hash, appending reason
//
// Entries run concurrently, each in its own temporary directory; an entry's
// stdout (minus "# wall time" lines), stderr and written files are hashed,
// then deleted. check lists what fails.
package main

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"
)

const manifestPath = "testdata/identity.json"

var wallTime = regexp.MustCompile(`(?m)^# wall time.*\n`)

// manifest holds the reason for every re-recording and the entries to run.
type manifest struct {
	Updates []string `json:"updates"`
	Entries []*entry `json:"entries"`
}

// entry is one CLI run; Args name outputs by relative path. Same names an
// entry to equal on every output both produce. Hashes maps "stdout",
// "stderr" and each written file to its SHA-256; got and err are this run's.
type entry struct {
	Name   string            `json:"name"`
	Cmd    string            `json:"cmd"`
	Args   string            `json:"args"`
	Same   string            `json:"same,omitempty"`
	Hashes map[string]string `json:"hashes"`
	got    map[string]string
	err    error
}

func main() {
	update := flag.String("update", "", "re-record every hash and append this reason to the manifest's updates")
	if flag.Parse(); flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: go run ./cmd/identity [-update reason]")
		os.Exit(2)
	}
	if err := identity(*update); err != nil {
		fmt.Fprintln(os.Stderr, "identity:", err)
		os.Exit(1)
	}
}

func identity(update string) error {
	var m manifest
	raw, err := os.ReadFile(manifestPath)
	if err == nil {
		err = json.Unmarshal(raw, &m)
	}
	if err == nil {
		err = validate(m.Entries)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", manifestPath, err)
	}
	bin, err := os.MkdirTemp("", "identity-bin-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(bin)
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/xenic-sim", "./cmd/xenic-bench")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build: %w", err)
	}
	start := time.Now()
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, e := range m.Entries {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-slots; wg.Done() }()
			t0 := time.Now()
			e.got, e.err = run(filepath.Join(bin, e.Cmd), strings.Fields(e.Args))
			fmt.Printf("%6.1fs %s\n", time.Since(t0).Seconds(), e.Name)
		}()
	}
	wg.Wait()
	if problems := check(m.Entries, update != ""); len(problems) > 0 {
		fmt.Println("FAIL " + strings.Join(problems, "\nFAIL "))
		return fmt.Errorf("%d problems over %d entries", len(problems), len(m.Entries))
	}
	if update != "" {
		for _, e := range m.Entries {
			e.Hashes = e.got
		}
		m.Updates = append(m.Updates, update)
		out, _ := json.MarshalIndent(m, "", "  ") // strings and string maps always encode
		err = os.WriteFile(manifestPath, append(out, '\n'), 0o644)
	}
	fmt.Printf("identity: %d entries match %s (%s)\n", len(m.Entries), manifestPath, time.Since(start).Round(time.Second))
	return err
}

// validate rejects what a run would misread: duplicate names, unknown
// commands, dangling same references and paths outside the working directory.
func validate(es []*entry) error {
	names := map[string]bool{"": true}
	for _, e := range es {
		if names[e.Name] {
			return fmt.Errorf("entry name %q is empty or not unique", e.Name)
		}
		names[e.Name] = true
	}
	for _, e := range es {
		switch {
		case e.Cmd != "xenic-sim" && e.Cmd != "xenic-bench":
			return fmt.Errorf("%s: cmd %q is not xenic-sim or xenic-bench", e.Name, e.Cmd)
		case e.Same == e.Name || !names[e.Same]:
			return fmt.Errorf("%s: same %q names no other entry", e.Name, e.Same)
		case slices.ContainsFunc(strings.Fields(e.Args), func(a string) bool { return filepath.IsAbs(a) || strings.Contains(a, "..") }):
			return fmt.Errorf("%s: an arg leaves the working directory", e.Name)
		}
	}
	return nil
}

// run executes one entry in a fresh working directory and hashes its
// outputs; the directory and everything in it are removed before returning.
func run(bin string, args []string) (map[string]string, error) {
	dir, err := os.MkdirTemp("", "identity-run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &stdout, &stderr
	if err := cmd.Run(); err != nil {
		tail := strings.TrimSpace(stdout.String() + stderr.String())
		return nil, fmt.Errorf("%v; output ends:\n\t%s", err, strings.ReplaceAll(tail[max(0, len(tail)-300):], "\n", "\n\t"))
	}
	hashes := map[string]string{"stdout": hash(wallTime.ReplaceAll(stdout.Bytes(), nil)), "stderr": hash(stderr.Bytes())}
	files, err := os.ReadDir(dir)
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			return nil, err
		}
		hashes[f.Name()] = hash(b)
	}
	return hashes, err
}

func hash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// check lists, naming entry and output, every nonzero exit, every same pair
// differing on an output both produce and, unless updating, every output that
// hashes differently or is missing from the run or the manifest ("none").
func check(es []*entry, updating bool) []string {
	var out []string
	for _, e := range es {
		if e.err != nil {
			out = append(out, fmt.Sprintf("%s: %v", e.Name, e.err))
			continue
		}
		if j := slices.IndexFunc(es, func(o *entry) bool { return o.Name == e.Same }); j >= 0 {
			for _, k := range slices.Sorted(maps.Keys(e.got)) {
				if h, ok := es[j].got[k]; ok && h != e.got[k] {
					out = append(out, fmt.Sprintf("%s: %s differs from same-pair entry %s", e.Name, k, e.Same))
				}
			}
		}
		all := maps.Clone(e.got)
		maps.Copy(all, e.Hashes)
		for _, k := range slices.Sorted(maps.Keys(all)) {
			if !updating && e.got[k] != e.Hashes[k] {
				out = append(out, fmt.Sprintf("%s: %s: sha256 %.12s, manifest %.12s", e.Name, k, cmp.Or(e.got[k], "none"), cmp.Or(e.Hashes[k], "none")))
			}
		}
	}
	return out
}
