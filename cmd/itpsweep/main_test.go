package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/cli_golden.txt from the current binary")

// bin is the itpsweep binary built once by TestMain.
var bin string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "itpsweep-cli-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "itpsweep")
	code := 1
	out, err := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "building itpsweep: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// goldenCases is itpsweep's run-mode matrix; stdout of every case is
// pinned byte for byte in testdata/cli_golden.txt.
var goldenCases = [][]string{
	{"-param", "xptp.k", "-values", "2,8", "-workloads", "srv_000,srv_001"},
	{"-param", "xptp.k", "-values", "2,8", "-workloads", "srv_000,srv_001", "-shards", "2"},
	{"-param", "xptp.k", "-values", "2,8", "-workloads", "srv_000,srv_001", "-sample-phases", "2", "-sample-window", "10000"},
	{"-param", "rob", "-values", "256,352", "-workloads", "srv_000", "-cores", "2"},
}

// TestCLIGolden pins itpsweep's table for every run mode. Regenerate with
// `go test ./cmd/itpsweep -run TestCLIGolden -update`.
func TestCLIGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range goldenCases {
		args := append(append([]string{}, c...), "-warmup", "20000", "-n", "50000")
		cmd := exec.Command(bin, args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("itpsweep %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
		}
		fmt.Fprintf(&got, "$ itpsweep %s\n%s\n", strings.Join(args, " "), stdout.String())
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
				t.Fatalf("stdout differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, gl, wl)
			}
		}
	}
}
