package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"itpsim/internal/trace"
	"itpsim/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/cli_golden.txt from the current binary")

// bin holds the itpsim and itpsweep binaries built once by TestMain.
var bin string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "itpsim-cli-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = dir
	code := 0
	for _, tool := range []string{"itpsim", "itpsweep"} {
		out, err := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build",
			"-o", filepath.Join(dir, tool), "../"+tool).CombinedOutput()
		if err != nil {
			fmt.Fprintf(os.Stderr, "building %s: %v\n%s", tool, err, out)
			code = 1
		}
	}
	if code == 0 {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// invoke runs one tool and returns its stdout, stderr and exit status.
func invoke(t *testing.T, tool string, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, tool), args...)
	var o, e bytes.Buffer
	cmd.Stdout, cmd.Stderr = &o, &e
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		status = exit.ExitCode()
	case err != nil:
		t.Fatalf("%s %v: %v", tool, args, err)
	}
	return o.String(), e.String(), status
}

// goldenScale keeps every pinned run well under a second.
var goldenScale = []string{"-warmup", "20000", "-n", "50000"}

// goldenCases is itpsim's run-mode matrix; stdout of every case is pinned
// byte for byte in testdata/cli_golden.txt.
var goldenCases = [][]string{
	{"-workload", "srv_000"},
	{"-workload", "srv_000", "-smt", "srv_001"},
	{"-workload", "srv_000,srv_001", "-cores", "2"},
	{"-workload", "srv_000,spec_000"},
	{"-workload", "srv_000", "-shards", "2"},
	{"-workload", "srv_000", "-func-warmup", "10000"},
	{"-workload", "srv_000", "-sample-phases", "2", "-sample-window", "10000"},
	{"-workload", "srv_000", "-stlb", "itp", "-l2c", "xptp", "-beacon-interval", "10000"},
}

// TestCLIGolden pins itpsim's report for every run mode. Regenerate with
// `go test ./cmd/itpsim -run TestCLIGolden -update`.
func TestCLIGolden(t *testing.T) {
	checkGolden(t, "itpsim", goldenCases, goldenScale)
}

func checkGolden(t *testing.T, tool string, cases [][]string, scale []string) {
	var got bytes.Buffer
	for _, c := range cases {
		args := append(append([]string{}, c...), scale...)
		stdout, stderr, status := invoke(t, tool, args...)
		if status != 0 {
			t.Fatalf("%s %s: exit %d\n%s", tool, strings.Join(args, " "), status, stderr)
		}
		fmt.Fprintf(&got, "$ %s %s\n%s\n", tool, strings.Join(args, " "), stdout)
	}
	path := filepath.Join("testdata", "cli_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) || i < len(w); i++ {
			var gl, wl string
			if i < len(g) {
				gl = g[i]
			}
			if i < len(w) {
				wl = w[i]
			}
			if gl != wl {
				t.Fatalf("%s stdout differs from %s at line %d:\n got: %q\nwant: %q", tool, path, i+1, gl, wl)
			}
		}
	}
}

// TestTornMetricsExport: -chaos torn-metrics tears the -metrics-out file
// mid-series (seed 13 tears it at byte 4429); the run still prints its
// whole report, then exits 1 naming the export instead of 0 over a
// truncated series.
func TestTornMetricsExport(t *testing.T) {
	args := append([]string{"-workload", "srv_000"}, goldenScale...)
	want, stderr, status := invoke(t, "itpsim", args...)
	if status != 0 {
		t.Fatalf("clean run: exit %d\n%s", status, stderr)
	}
	out := filepath.Join(t.TempDir(), "windows.jsonl")
	got, stderr, status := invoke(t, "itpsim", append(args, "-metrics-out", out, "-chaos", "torn-metrics", "-chaos-seed", "13")...)
	if status != 1 {
		t.Errorf("torn export: exit %d, want 1\n%s", status, stderr)
	}
	if got != want {
		t.Errorf("torn export changed the report:\n%s\nwant:\n%s", got, want)
	}
	if !strings.Contains(stderr, "itpsim: metrics export: ") {
		t.Errorf("stderr does not name the export failure:\n%s", stderr)
	}
}

// modeCell is one cell of the run-mode matrix. sim and sweep are the
// cell's flags for each tool (nil: the tool has no such mode); both tools
// must give the cell the same verdict.
type modeCell struct {
	name       string
	sim, sweep []string
	accept     bool
	// was names the tool that rejected this accepted cell before both
	// tools validated through run.Spec.
	was string
}

// TestModeMatrix walks the run-mode matrix (cores, SMT, trace, shards,
// phases, functional warmup, metrics export, batch) through both tools.
// A rejected cell exits with status 2 and a single "<tool>: " line.
func TestModeMatrix(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "srv_000.itpt.gz")
	writeTrace(t, tracePath, 80_000)
	out := filepath.Join(dir, "windows.jsonl")

	one := func(extra ...string) []string { return append([]string{"-workload", "srv_000"}, extra...) }
	oneSweep := func(extra ...string) []string { return append([]string{"-workloads", "srv_000"}, extra...) }
	batch := func(extra ...string) []string { return append([]string{"-workload", "srv_000,spec_000"}, extra...) }
	batchSweep := func(extra ...string) []string {
		return append([]string{"-workloads", "srv_000,spec_000"}, extra...)
	}
	cores := func(extra ...string) []string {
		return append([]string{"-workload", "srv_000,srv_001", "-cores", "2"}, extra...)
	}
	coresSweep := func(extra ...string) []string { return oneSweep(append([]string{"-cores", "2"}, extra...)...) }
	smt := func(extra ...string) []string { return one(append([]string{"-smt", "srv_001"}, extra...)...) }
	tr := func(extra ...string) []string { return append([]string{"-trace", tracePath}, extra...) }
	shards := []string{"-shards", "2"}
	phases := []string{"-sample-phases", "2", "-sample-window", "10000"}
	fw := []string{"-func-warmup", "10000"}
	export := []string{"-metrics-out", out}

	cells := []modeCell{
		{name: "single", sim: one(), sweep: oneSweep(), accept: true},
		{name: "batch", sim: batch(), sweep: batchSweep(), accept: true},
		{name: "cores", sim: cores(), sweep: coresSweep(), accept: true},
		{name: "smt", sim: smt(), accept: true},
		{name: "trace", sim: tr(), accept: true},
		{name: "shards", sim: one(shards...), sweep: oneSweep(shards...), accept: true},
		{name: "phases", sim: one(phases...), sweep: oneSweep(phases...), accept: true},
		{name: "func-warmup", sim: one(fw...), sweep: oneSweep(fw...), accept: true},
		{name: "export", sim: one(export...), sweep: oneSweep(export...), accept: true},
		{name: "batch+export", sim: batch(export...), sweep: batchSweep(export...), accept: true},
		{name: "export+shards", sim: one(append(export, shards...)...), sweep: oneSweep(append(export, shards...)...), accept: true, was: "itpsweep"},
		{name: "batch+shards", sim: batch(shards...), sweep: batchSweep(shards...), accept: true, was: "itpsim"},
		{name: "batch+phases", sim: batch(phases...), sweep: batchSweep(phases...), accept: true, was: "itpsim"},
		{name: "batch+func-warmup", sim: batch(fw...), sweep: batchSweep(fw...), accept: true, was: "itpsim"},

		{name: "func-warmup>=warmup", sim: one("-func-warmup", "20000"), sweep: oneSweep("-func-warmup", "20000")},
		{name: "shards+phases", sim: one(append(shards, phases...)...), sweep: oneSweep(append(shards, phases...)...)},
		{name: "export+phases", sim: one(append(export, phases...)...), sweep: oneSweep(append(export, phases...)...)},
		{name: "cores+shards", sim: cores(shards...), sweep: coresSweep(shards...)},
		{name: "cores+phases", sim: cores(phases...), sweep: coresSweep(phases...)},
		{name: "cores+func-warmup", sim: cores(fw...), sweep: coresSweep(fw...)},
		{name: "cores+smt", sim: cores("-smt", "srv_002")},
		{name: "cores+trace", sim: tr("-cores", "2")},
		{name: "batch+smt", sim: batch("-smt", "srv_001")},
		{name: "smt+shards", sim: smt(shards...)},
		{name: "smt+phases", sim: smt(phases...)},
		{name: "smt+func-warmup", sim: smt(fw...)},
		{name: "trace+shards", sim: tr(shards...)},
		{name: "trace+phases", sim: tr(phases...)},
		{name: "trace+func-warmup", sim: tr(fw...)},
	}
	for _, c := range cells {
		for _, tool := range []struct {
			name string
			args []string
			base []string
		}{
			{"itpsim", c.sim, []string{"-warmup", "20000", "-n", "40000"}},
			{"itpsweep", c.sweep, []string{"-param", "rob", "-values", "352", "-warmup", "20000", "-n", "40000"}},
		} {
			if tool.args == nil {
				continue
			}
			want := c.accept
			args := append(append([]string{}, tool.base...), tool.args...)
			_, stderr, status := invoke(t, tool.name, args...)
			switch {
			case want && status != 0:
				t.Errorf("%s %s: %s should accept, exit %d:\n%s", c.name, tool.name, strings.Join(args, " "), status, stderr)
			case !want && status != 2:
				t.Errorf("%s %s: %s should reject with status 2, exited %d", c.name, tool.name, strings.Join(args, " "), status)
			case !want:
				lines := strings.Split(strings.TrimRight(stderr, "\n"), "\n")
				if len(lines) != 1 || !strings.HasPrefix(lines[0], tool.name+": ") {
					t.Errorf("%s %s: reject should print one %q line, got:\n%s", c.name, tool.name, tool.name+": ", stderr)
				}
			}
		}
	}
}

// writeTrace records n instructions of srv_000 to path.
func writeTrace(t *testing.T, path string, n uint64) {
	t.Helper()
	spec, err := workload.NewCatalog(120, 20).Get("srv_000")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Record(w, spec.NewStream(), n); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
