package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"parconn"
)

func runCapture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// writeFixtureTrace synthesizes a small valid trace whose contract phase
// takes the given duration, so diff tests can inject a slowdown in one
// metric while everything else stays identical.
func writeFixtureTrace(t *testing.T, path string, contract time.Duration, env parconn.Env) {
	t.Helper()
	tr := parconn.NewTrace()
	var envp *parconn.Env
	if !env.IsZero() {
		envp = &env
	}
	tr.RunStart(parconn.RunStart{Algorithm: "decomp-arb-hybrid-CC", Vertices: 1000, Edges: 4000, Procs: 2, Seed: 7, Beta: 0.2, Env: envp})
	tr.Phase(parconn.Phase{Level: 0, Name: "init", Duration: 10 * time.Millisecond})
	tr.LevelStart(parconn.LevelStart{Level: 0, Vertices: 1000, EdgesIn: 4000})
	tr.Round(parconn.Round{Level: 0, Round: 0, Frontier: 200, NewCenters: 200, Duration: 5 * time.Millisecond})
	tr.Phase(parconn.Phase{Level: 0, Name: "bfs_sparse", Duration: 100 * time.Millisecond})
	tr.LevelEnd(parconn.LevelEnd{Level: 0, Vertices: 1000, EdgesIn: 4000, EdgesCut: 400, EdgesOut: 100, Components: 50, Rounds: 1})
	tr.Phase(parconn.Phase{Level: 0, Name: "contract", Duration: contract})
	tr.RunEnd(parconn.RunEnd{Components: 3, Duration: 110*time.Millisecond + contract})

	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSummary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	writeFixtureTrace(t, path, 40*time.Millisecond, parconn.CaptureEnv())
	code, out, errb := runCapture(t, "summary", path)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, errb)
	}
	for _, want := range []string{
		"1 runs",
		"env: go",
		"decomp-arb-hybrid-CC n=1000 m=4000",
		"bfs_sparse", // phase table
		"contract",   // phase table
		"edges_cut",  // level table header
		"0.025",      // edge decay 100/4000
		"frontier sizes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary output missing %q:\n%s", want, out)
		}
	}
	// The phase table is sorted by descending total: bfs_sparse (100ms)
	// before contract (40ms) before init (10ms).
	if i, j := strings.Index(out, "bfs_sparse"), strings.Index(out, "contract"); i > j {
		t.Errorf("phase table not sorted by total time:\n%s", out)
	}
}

func TestDiffIdenticalTracesPass(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.jsonl")
	writeFixtureTrace(t, base, 40*time.Millisecond, parconn.Env{})
	code, out, errb := runCapture(t, "diff", base, base)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s\n%s", code, errb, out)
	}
	if !strings.Contains(out, "no regressions") {
		t.Fatalf("diff output:\n%s", out)
	}
}

func TestDiffDetectsPhaseSlowdown(t *testing.T) {
	// A 2.5x slowdown of one phase, well above the default 2ms floor, must
	// be flagged at the default 1.5x tolerance and exit non-zero.
	dir := t.TempDir()
	base := filepath.Join(dir, "base.jsonl")
	slow := filepath.Join(dir, "slow.jsonl")
	writeFixtureTrace(t, base, 40*time.Millisecond, parconn.Env{})
	writeFixtureTrace(t, slow, 100*time.Millisecond, parconn.Env{})
	code, out, _ := runCapture(t, "diff", base, slow)
	if code != 1 {
		t.Fatalf("exit=%d want 1\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "phase/contract") {
		t.Fatalf("regression not reported:\n%s", out)
	}
	// Only the injected phase regresses; the run total grows 1.4x, under
	// the 1.5x tolerance.
	if strings.Count(out, "REGRESSION") != 1 {
		t.Fatalf("unexpected regression count:\n%s", out)
	}

	// A generous tolerance waves the same slowdown through.
	code, _, _ = runCapture(t, "diff", "-tol", "4", base, slow)
	if code != 0 {
		t.Fatalf("tol=4 exit=%d want 0", code)
	}

	// A floor above the absolute increase suppresses it too.
	code, _, _ = runCapture(t, "diff", "-floor", "500ms", base, slow)
	if code != 0 {
		t.Fatalf("floor=500ms exit=%d want 0", code)
	}
}

func TestDiffFloorSuppressesTinyRegressions(t *testing.T) {
	// 2.5x ratio but only 1ms absolute: below the default 2ms floor.
	dir := t.TempDir()
	base := filepath.Join(dir, "base.jsonl")
	slow := filepath.Join(dir, "slow.jsonl")
	writeFixtureTrace(t, base, 600*time.Microsecond, parconn.Env{})
	writeFixtureTrace(t, slow, 1500*time.Microsecond, parconn.Env{})
	code, out, _ := runCapture(t, "diff", base, slow)
	if code != 0 {
		t.Fatalf("exit=%d want 0 (floor should suppress)\n%s", code, out)
	}
}

func TestDiffEnvMismatchWarns(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.jsonl")
	other := filepath.Join(dir, "other.jsonl")
	env := parconn.CaptureEnv()
	writeFixtureTrace(t, base, 40*time.Millisecond, env)
	env.GoMaxProcs += 7
	writeFixtureTrace(t, other, 40*time.Millisecond, env)
	code, _, errb := runCapture(t, "diff", base, other)
	if code != 0 {
		t.Fatalf("exit=%d", code)
	}
	if !strings.Contains(errb, "environment mismatch") || !strings.Contains(errb, "gomaxprocs") {
		t.Fatalf("no env warning:\n%s", errb)
	}
}

func TestUsageAndInputErrors(t *testing.T) {
	if code, _, _ := runCapture(t); code != 2 {
		t.Fatal("no args accepted")
	}
	if code, _, _ := runCapture(t, "bogus"); code != 2 {
		t.Fatal("unknown subcommand accepted")
	}
	if code, _, _ := runCapture(t, "summary"); code != 2 {
		t.Fatal("summary without file accepted")
	}
	if code, _, _ := runCapture(t, "summary", "/nonexistent.jsonl"); code != 2 {
		t.Fatal("missing file accepted")
	}
	if code, _, _ := runCapture(t, "diff", "/nonexistent.jsonl", "/nonexistent.jsonl"); code != 2 {
		t.Fatal("missing diff inputs accepted")
	}
	// Diff compares traces only; the bench-report baseline flag is gone.
	if code, _, errb := runCapture(t, "diff", "-input", "rMat", "a.json", "b.jsonl"); code != 2 || !strings.Contains(errb, "-input") {
		t.Fatalf("diff -input: exit=%d stderr=%s", code, errb)
	}
	// The serving gates moved to perfbench; their old names are unknown
	// subcommands now, not silent passes.
	for _, sub := range []string{"serve", "churn", "slo"} {
		if code, _, errb := runCapture(t, sub, "a.json", "b.json"); code != 2 || !strings.Contains(errb, "unknown subcommand") {
			t.Fatalf("retired %q: exit=%d stderr=%s", sub, code, errb)
		}
	}

	// A structurally invalid trace (end without start) is rejected.
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"ev\":\"run_end\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errb := runCapture(t, "summary", bad); code != 2 || !strings.Contains(errb, "tracestat:") {
		t.Fatalf("invalid trace accepted: exit=%d stderr=%s", code, errb)
	}

	// Two traces with no common metrics cannot be gated.
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(t.TempDir(), "good.jsonl")
	writeFixtureTrace(t, good, 40*time.Millisecond, parconn.Env{})
	if code, _, errb := runCapture(t, "diff", empty, good); code != 2 || !strings.Contains(errb, "nothing compared") {
		t.Fatalf("empty baseline: exit=%d stderr=%s", code, errb)
	}
}

// TestSummaryShareColumn checks the share-of-total column: with phases of
// 100ms, 40ms, and 10ms the shares are 66.7%, 26.7%, and 6.7%.
func TestSummaryShareColumn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	writeFixtureTrace(t, path, 40*time.Millisecond, parconn.CaptureEnv())
	code, out, errb := runCapture(t, "summary", path)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, errb)
	}
	for _, want := range []string{"share", "66.7%", "26.7%", "6.7%"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary output missing %q:\n%s", want, out)
		}
	}
}

// writeSpeedupFixture writes a minimal BENCH_speedup.json with the given
// efficiency at the widest procs setting of the gated algorithm.
func writeSpeedupFixture(t *testing.T, path string, topEfficiency float64) {
	t.Helper()
	report := map[string]any{
		"go_version": "go1.24.0",
		"env":        parconn.CaptureEnv(),
		"scale":      1.0,
		"seed":       42,
		"results": []map[string]any{{
			"input":     "rMat",
			"algorithm": "decomp-arb-hybrid-CC",
			"points": []map[string]any{
				{"procs": 1, "effective_workers": 1, "ns_per_op": 1e8, "speedup": 1.0, "efficiency": 1.0},
				{"procs": 4, "effective_workers": 1, "ns_per_op": 1e8 / topEfficiency, "speedup": topEfficiency, "efficiency": topEfficiency},
			},
		}},
	}
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedupGatePasses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sp.json")
	writeSpeedupFixture(t, path, 0.95)
	code, out, errb := runCapture(t, "speedup", path)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s out=%s", code, errb, out)
	}
	if !strings.Contains(out, "holds efficiency") {
		t.Errorf("missing pass line:\n%s", out)
	}
}

func TestSpeedupGateTripsBelowFloor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sp.json")
	writeSpeedupFixture(t, path, 0.3) // below the default 0.5 floor
	code, out, _ := runCapture(t, "speedup", path)
	if code != 1 {
		t.Fatalf("exit=%d, want 1 (efficiency 0.3 under floor 0.5):\n%s", code, out)
	}
	if !strings.Contains(out, "BELOW FLOOR") {
		t.Errorf("missing BELOW FLOOR verdict:\n%s", out)
	}
	// An unknown gated algorithm is a usage error, not a pass.
	if code, _, _ := runCapture(t, "speedup", "-algorithm", "no-such-alg", path); code != 2 {
		t.Errorf("unknown algorithm: exit=%d, want 2", code)
	}
}
