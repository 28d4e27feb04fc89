package main

import (
	"errors"
	"strings"
	"testing"
)

// TestCheck: every rule the manifest enforces names the entry and the
// output, and -update skips only the hash comparison.
func TestCheck(t *testing.T) {
	h := func(kv ...string) map[string]string {
		m := map[string]string{}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i]] = kv[i+1]
		}
		return m
	}
	es := []*entry{
		{Name: "ok", Hashes: h("stdout", "a", "s.json", "b"), got: h("stdout", "a", "s.json", "b")},
		{Name: "moved", Hashes: h("stdout", "a"), got: h("stdout", "z")},
		{Name: "missing", Hashes: h("stdout", "a", "t.json", "c"), got: h("stdout", "a")},
		{Name: "extra", Hashes: h("stdout", "a"), got: h("stdout", "a", "new.csv", "d")},
		{Name: "exit", Hashes: h("stdout", "a"), err: errors.New("exit status 1: -check: not serializable")},
		{Name: "pair", Same: "ok", Hashes: h("stdout", "x", "s.json", "b"), got: h("stdout", "x", "s.json", "b")},
	}
	want := []string{
		"moved: stdout: sha256 z, manifest a",
		"missing: t.json: sha256 none, manifest c",
		"extra: new.csv: sha256 d, manifest none",
		"exit: exit status 1: -check: not serializable",
		"pair: stdout differs from same-pair entry ok",
	}
	if got := check(es, false); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("check:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	want = []string{want[3], want[4]}
	if got := check(es, true); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("check while updating:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		es   []*entry
		want string // "" = valid
	}{
		{"valid", []*entry{
			{Name: "a", Cmd: "xenic-sim", Args: "-faults stall=0/3@1ms+200us -stats s.json"},
			{Name: "b", Cmd: "xenic-bench", Args: "-quick fig2", Same: "a"},
		}, ""},
		{"unknown cmd", []*entry{{Name: "a", Cmd: "go"}}, "cmd"},
		{"duplicate", []*entry{{Name: "a", Cmd: "xenic-sim"}, {Name: "a", Cmd: "xenic-sim"}}, "not unique"},
		{"empty name", []*entry{{Cmd: "xenic-sim"}}, "empty"},
		{"absolute path", []*entry{{Name: "a", Cmd: "xenic-sim", Args: "-trace /t.json"}}, "leaves"},
		{"parent path", []*entry{{Name: "a", Cmd: "xenic-sim", Args: "-stats ../s.json"}}, "leaves"},
		{"dangling same", []*entry{{Name: "a", Cmd: "xenic-sim", Same: "b"}}, "names no other"},
		{"self same", []*entry{{Name: "a", Cmd: "xenic-sim", Same: "a"}}, "names no other"},
	} {
		err := validate(tc.es)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}
