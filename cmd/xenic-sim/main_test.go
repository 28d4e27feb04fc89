package main

import (
	"strings"
	"testing"
)

// TestValidateFlags: every value main divides by or measures over is checked
// up front, and the error names the offending flag.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		name                     string
		app, threads, warmMS, ms int
		wantFlag                 string // "" = valid
	}{
		{"defaults", 2, 16, 3, 10, ""},
		{"minimums", 1, 1, 0, 1, ""},
		{"app zero", 0, 16, 3, 10, "-app"},
		{"app negative", -2, 16, 3, 10, "-app"},
		{"threads zero", 2, 0, 3, 10, "-threads"},
		{"warm-ms negative", 2, 16, -1, 10, "-warm-ms"},
		{"ms zero", 2, 16, 3, 0, "-ms"},
		{"ms negative", 2, 16, 3, -1, "-ms"},
	} {
		err := validateFlags(tc.app, tc.threads, tc.warmMS, tc.ms)
		switch {
		case tc.wantFlag == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantFlag != "" && err == nil:
			t.Errorf("%s: accepted, want an error naming %s", tc.name, tc.wantFlag)
		case tc.wantFlag != "" && !strings.HasPrefix(err.Error(), tc.wantFlag+" "):
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.wantFlag)
		}
	}
}
