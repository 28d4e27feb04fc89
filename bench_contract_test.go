package xenic_test

import (
	"os/exec"
	"testing"
)

// TestBenchContract compiles and vets the nested benchmark module (bench/,
// its own go.mod with a replace onto this tree) against the current API, so
// `go test ./...` fails when a move in the root module would ship a
// benchmark that cannot build. CI's bench-contract job also runs its tests
// and a one-second smoke.
func TestBenchContract(t *testing.T) {
	out, err := exec.Command("go", "vet", "-C", "bench", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go vet -C bench ./...: %v\n%s", err, out)
	}
}
