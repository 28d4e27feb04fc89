package cliflags

import (
	"flag"
	"strings"
	"testing"

	"xenic/internal/sim"
)

func TestOpenLoopFlagsRoundTrip(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := AddOpenLoop(fs)
	if err := fs.Parse([]string{
		"-openloop", "2e6", "-arrival", "pareto", "-sessions", "128",
		"-tenants", "4", "-session-life-us", "500", "-admit", "queue:64:256",
		"-slo-us", "100",
	}); err != nil {
		t.Fatal(err)
	}
	if !o.Enabled() {
		t.Fatal("openloop not enabled")
	}
	cfg, err := o.Config(7)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Rate != 2e6 || cfg.Sessions != 128 || cfg.Tenants != 4 ||
		cfg.SessionLife != 500*sim.Microsecond || cfg.Seed != 7 {
		t.Fatalf("config mismatch: %+v", cfg)
	}
	if cfg.Arrival.Name() != "pareto" || cfg.Admit.Name() != "queue" {
		t.Fatalf("spec parsing mismatch: %s/%s", cfg.Arrival.Name(), cfg.Admit.Name())
	}
	if o.SLO() != 100*sim.Microsecond {
		t.Fatalf("SLO mismatch: %v", o.SLO())
	}
	src, err := o.Source(7)
	if err != nil || src == nil {
		t.Fatalf("Source: %v %v", src, err)
	}
}

func TestOpenLoopDisabledByDefault(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := AddOpenLoop(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o.Enabled() {
		t.Fatal("openloop enabled with no flags")
	}
	if src, err := o.Source(1); src != nil || err != nil {
		t.Fatalf("disabled Source should be nil,nil: %v %v", src, err)
	}
}

func TestOpenLoopBadSpecs(t *testing.T) {
	for _, args := range [][]string{
		{"-openloop", "1e6", "-arrival", "uniform"},
		{"-openloop", "1e6", "-admit", "bogus:3"},
		{"-openloop", "1e6", "-admit", "token:NaN"},
		{"-openloop", "1e6", "-admit", "token:Inf"},
		{"-openloop", "1e6", "-admit", "token:1:NaN"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		o := AddOpenLoop(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		_, err := o.Source(1)
		if err == nil {
			t.Fatalf("bad spec %v accepted", args)
		}
		if name := args[2]; !strings.HasPrefix(err.Error(), name+": ") {
			t.Errorf("bad spec %v: error %q does not name %s", args, err, name)
		}
	}
}
