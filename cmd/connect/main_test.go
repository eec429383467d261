package main

import (
	"bufio"
	"bytes"
	"net/http"
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

func TestRunGenerated(t *testing.T) {
	code, out, _ := runCapture(t, "-gen", "random", "-n", "5000", "-verify", "-stats")
	if code != 0 {
		t.Fatalf("exit=%d", code)
	}
	for _, want := range []string{"graph: 5000 vertices", "labeling verified", "components in", "stats:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunEveryGenerator(t *testing.T) {
	for _, gen := range []string{"random", "rmat", "grid3d", "line", "social", "star"} {
		code, out, errb := runCapture(t, "-gen", gen, "-n", "2000", "-scale", "9", "-side", "8", "-verify")
		if code != 0 {
			t.Fatalf("%s: exit=%d stderr=%s", gen, code, errb)
		}
		if !strings.Contains(out, "labeling verified") {
			t.Fatalf("%s: not verified:\n%s", gen, out)
		}
	}
}

func TestRunDecomposeMode(t *testing.T) {
	code, out, _ := runCapture(t, "-gen", "grid3d", "-side", "10", "-decompose", "-beta", "0.1")
	if code != 0 {
		t.Fatalf("exit=%d", code)
	}
	if !strings.Contains(out, "partitions") || !strings.Contains(out, "cut edges") {
		t.Fatalf("decompose output wrong:\n%s", out)
	}
}

func TestRunFileRoundTripAndLabels(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.adj")
	labelsPath := filepath.Join(dir, "labels.txt")

	// Write a graph file via the library, then feed it back through -in.
	g := parconn.LineGraph(100, 1)
	f, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(f)
	if err := g.Write(bw); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	code, out, errb := runCapture(t, "-in", graphPath, "-labels", labelsPath, "-algorithm", "serial-SF")
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, errb)
	}
	if !strings.Contains(out, "1 components") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	data, err := os.ReadFile(labelsPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(string(data))
	if len(lines) != 100 {
		t.Fatalf("labels file has %d entries", len(lines))
	}
}

func TestRunErrors(t *testing.T) {
	if code, _, _ := runCapture(t); code == 0 {
		t.Fatal("no input accepted")
	}
	if code, _, _ := runCapture(t, "-gen", "bogus"); code == 0 {
		t.Fatal("bogus generator accepted")
	}
	if code, _, errb := runCapture(t, "-gen", "line", "-n", "10", "-algorithm", "bogus"); code == 0 || !strings.Contains(errb, "available:") {
		t.Fatal("bogus algorithm accepted or help missing")
	}
	if code, _, _ := runCapture(t, "-in", "/nonexistent/file"); code == 0 {
		t.Fatal("missing file accepted")
	}
	if code, _, _ := runCapture(t, "-badflag"); code == 0 {
		t.Fatal("bad flag accepted")
	}
	if code, _, _ := runCapture(t, "-gen", "line", "-n", "10", "-decompose", "-algorithm", "serial-SF"); code == 0 {
		t.Fatal("decompose with non-decomposition algorithm accepted")
	}
}

func TestRunEdgeListInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte("# snap style\n10 20\n20 30\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errb := runCapture(t, "-in", path, "-verify")
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, errb)
	}
	if !strings.Contains(out, "graph: 3 vertices, 2 undirected edges") {
		t.Fatalf("output wrong:\n%s", out)
	}
}

// TestRunTrace exercises -trace end to end: the JSONL file must validate,
// per-level edge counts must never increase, and the per-phase durations
// must account for the run's wall time to within 10%.
func TestRunTrace(t *testing.T) {
	// Warm the process-global worker pool, arena, and machine pools first:
	// the 10% criterion pins the steady-state accounting of the engine's
	// work, not one-time process initialization (cold pprof/pool/GC setup
	// costs land between phases on the very first run).
	if code, _, errb := runCapture(t, "-gen", "rmat", "-scale", "10", "-trace", filepath.Join(t.TempDir(), "warm.jsonl")); code != 0 {
		t.Fatalf("warmup exit=%d stderr=%s", code, errb)
	}

	tracePath := filepath.Join(t.TempDir(), "run.jsonl")
	code, out, errb := runCapture(t, "-gen", "rmat", "-scale", "14", "-trace", tracePath)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, errb)
	}
	if !strings.Contains(out, "events written to") {
		t.Fatalf("trace report missing:\n%s", out)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := parconn.ParseTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := parconn.ValidateTraceEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Runs != 1 || sum.Levels == 0 || sum.Rounds == 0 {
		t.Fatalf("summary %+v", sum)
	}

	var (
		phaseSum time.Duration
		wall     time.Duration
		prevIn   = int64(1) << 62
		levels   int
	)
	for _, ev := range events {
		switch e := ev.V.(type) {
		case parconn.Phase:
			phaseSum += e.Duration
		case parconn.RunEnd:
			wall = e.Duration
		case parconn.LevelEnd:
			if e.EdgesIn > prevIn {
				t.Fatalf("level %d edges_in %d > previous %d", e.Level, e.EdgesIn, prevIn)
			}
			prevIn = e.EdgesIn
			levels++
		}
	}
	if levels == 0 || wall <= 0 {
		t.Fatalf("levels=%d wall=%v", levels, wall)
	}
	if ratio := float64(phaseSum) / float64(wall); ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("phase durations sum to %v, wall %v (ratio %.3f, want within 10%%)", phaseSum, wall, ratio)
	}

	// The -validate-trace mode must agree.
	code, out, errb = runCapture(t, "-validate-trace", tracePath)
	if code != 0 {
		t.Fatalf("validate exit=%d stderr=%s", code, errb)
	}
	if !strings.Contains(out, "valid") {
		t.Fatalf("validate output wrong:\n%s", out)
	}
}

// TestRunTraceDecompose covers -trace in -decompose mode.
func TestRunTraceDecompose(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "decomp.jsonl")
	code, _, errb := runCapture(t, "-gen", "grid3d", "-side", "10", "-decompose", "-trace", tracePath)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, errb)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sum, err := parconn.ValidateTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Runs != 1 || sum.Rounds == 0 {
		t.Fatalf("summary %+v", sum)
	}
}

// TestRunValidateTraceRejects covers the failure paths of -validate-trace.
func TestRunValidateTraceRejects(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte("{\"ev\":\"run_end\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errb := runCapture(t, "-validate-trace", path); code == 0 || !strings.Contains(errb, "invalid trace") {
		t.Fatalf("bad trace accepted: exit=%d stderr=%s", code, errb)
	}
	if code, _, _ := runCapture(t, "-validate-trace", "/nonexistent/trace.jsonl"); code == 0 {
		t.Fatal("missing trace file accepted")
	}
}

// TestRunHTTPDebugServer runs a small job with -http and confirms that the
// debug server binds and announces its address, and — since the lifecycle
// fix — that it is shut down again when run returns instead of leaking for
// the rest of the process. (The endpoint's content is covered by the
// obshttp package tests; here the run has already exited by the time we
// could query it.)
func TestRunHTTPDebugServer(t *testing.T) {
	code, out, errb := runCapture(t, "-gen", "random", "-n", "2000", "-http", "127.0.0.1:0")
	if code != 0 {
		t.Fatalf("exit=%d stderr=%s", code, errb)
	}
	const marker = "debug server: http://"
	i := strings.Index(out, marker)
	if i < 0 {
		t.Fatalf("no debug server line:\n%s", out)
	}
	url := strings.TrimSpace(strings.SplitN(out[i+len("debug server: "):], "\n", 2)[0])
	c := &http.Client{Timeout: time.Second}
	resp, err := c.Get(url)
	if err == nil {
		resp.Body.Close()
		t.Fatalf("debug server still answering after run returned: %s", url)
	}
}
