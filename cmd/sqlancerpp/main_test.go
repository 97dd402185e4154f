package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// binPath is the command, built once by TestMain.
var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "sqlancerpp-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "sqlancerpp")
	code := 1
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building the command: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the command and returns its stdout, stderr and exit code.
func run(t *testing.T, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(binPath, args...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.Bytes(), errOut.Bytes(), code
}

// TestGoldenOutput pins the printed summary byte for byte: one serial
// run, and one 2-worker chaos run with a checkpoint whose summary shows
// the budget, retry, quarantine and checkpoint-failure lines.
func TestGoldenOutput(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"serial.golden", []string{"-dbms", "sqlite", "-cases", "600", "-seed", "3", "-max-print", "2"}},
		{"chaos.golden", []string{"-dbms", "cratedb", "-cases", "1000", "-seed", "9001", "-workers", "2",
			"-checkpoint", filepath.Join(t.TempDir(), "run.ckpt"),
			"-chaos", "shard-error=1x9,3x1;ckpt-write=~3", "-budget", "100", "-max-print", "2"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		got, stderr, code := run(t, tc.args...)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", tc.golden, code, stderr)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: output differs\n--- got\n%s\n--- want\n%s", tc.golden, got, want)
		}
	}
}

// TestStateFileErrors: a missing -state file starts cold and is written
// at the end; an unreadable one or a failed write exits non-zero.
func TestStateFileErrors(t *testing.T) {
	dir := t.TempDir()
	fresh := filepath.Join(dir, "state.json")
	if _, stderr, code := run(t, "-dbms", "sqlite", "-cases", "50", "-state", fresh); code != 0 {
		t.Fatalf("missing state file: exit %d: %s", code, stderr)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("state not persisted: %v", err)
	}
	if _, _, code := run(t, "-dbms", "sqlite", "-cases", "50", "-state", dir); code == 0 {
		t.Error("unreadable state file (a directory) exited 0")
	}
	if _, _, code := run(t, "-dbms", "sqlite", "-cases", "50", "-state", filepath.Join(dir, "no", "such", "dir.json")); code == 0 {
		t.Error("failed state persist exited 0")
	}
}

// TestResumeNeedsCheckpoint: -resume without -checkpoint is refused
// instead of silently running a fresh campaign.
func TestResumeNeedsCheckpoint(t *testing.T) {
	if out, _, code := run(t, "-dbms", "sqlite", "-cases", "50", "-resume"); code == 0 {
		t.Fatalf("-resume without -checkpoint exited 0:\n%s", out)
	}
}

// TestProfiles: -cpuprofile and -memprofile each write a non-empty
// gzip-compressed pprof profile, and the printed summary stays byte for
// byte the serial golden's.
func TestProfiles(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "serial.golden"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	got, stderr, code := run(t, "-dbms", "sqlite", "-cases", "600", "-seed", "3", "-max-print", "2",
		"-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from serial.golden\n--- got\n%s\n--- want\n%s", got, want)
	}
	for _, path := range []string{cpu, mem} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Errorf("%s: not a gzip-compressed profile (%d bytes)", filepath.Base(path), len(data))
		}
	}
}
