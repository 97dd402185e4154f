package campaign

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sqlancerpp/internal/dialect"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/report_digests.txt")

// digestPath is the determinism golden: one line per (dialect, mode)
// holding the SHA-256 of the merged report's JSON and of its feedback
// state (the bytes the CLI writes to -state).
const digestPath = "testdata/report_digests.txt"

// digestCases and digestSeed size the golden's campaigns: every dialect
// with its fault catalogue armed, small enough that the whole matrix
// runs in a few seconds. The performance watchdog is on, so the
// PerfOnFeature faults show in the reports too.
const (
	digestCases     = 1000
	digestSeed      = 26
	digestPerfLimit = 500_000
)

// digestResumeShard is where the workers2-resume runs are interrupted:
// the resume restores shards 0 and 1 from the journal, decoding their
// state, and runs the rest.
const digestResumeShard = 2

// TestReportDigests pins the merged report and the -state bytes of
// every built-in dialect, faults armed, at one seed, in four modes: the
// serial runner; RunShardedOpts at 2 and at 8 workers with a checkpoint;
// and RunShardedOpts at 2 workers under "shard-error=1x2" chaos, whose
// shard 1 fails twice and passes on its last retry. The file ends with a
// fifth mode per dialect, workers2-resume: a 2-worker checkpointed run
// interrupted as shard digestResumeShard starts, then resumed, whose
// line must hash like workers2-ckpt. It
// sees a change that moves every worker count alike, which the
// equalities between worker counts cannot. A change that moves a line
// must say why; go test -run TestReportDigests -update rewrites the
// file.
func TestReportDigests(t *testing.T) {
	var b strings.Builder
	fmt.Fprintf(&b, "# dialect mode sha256(report json) sha256(state): seed %d, %d cases, faults armed, perf limit %d\n",
		digestSeed, digestCases, digestPerfLimit)
	var resumes strings.Builder
	digests := map[string]string{}
	line := func(w *strings.Builder, name, mode string, rep *Report) {
		if rep.FalsePositives != 0 {
			t.Errorf("%s %s: %d false positives", name, mode, rep.FalsePositives)
		}
		digests[mode] = fmt.Sprintf("%x %x", sha256.Sum256(marshalReport(t, rep)), sha256.Sum256(rep.FeedbackState))
		fmt.Fprintf(w, "%s %s %s\n", name, mode, digests[mode])
	}
	for _, name := range dialect.Names() {
		cfg := Config{
			Dialect:       dialect.MustGet(name),
			Mode:          Adaptive,
			TestCases:     digestCases,
			Seed:          digestSeed,
			PerfCostLimit: digestPerfLimit,
		}
		runner, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := runner.Run()
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		sharded := func(mode string, cfg Config, opts ShardedOptions) *Report {
			rep, err := RunShardedOpts(cfg, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", name, mode, err)
			}
			return rep
		}
		chaosCfg := cfg
		chaosCfg.Chaos = mustChaos(t, "shard-error=1x2", cfg.Seed)
		for _, r := range []struct {
			mode string
			rep  *Report
		}{
			{"serial", serial},
			{"workers2-ckpt", sharded("workers2-ckpt", cfg, ShardedOptions{
				Workers: 2, CheckpointPath: filepath.Join(t.TempDir(), "run.ckpt")})},
			{"workers8-ckpt", sharded("workers8-ckpt", cfg, ShardedOptions{
				Workers: 8, CheckpointPath: filepath.Join(t.TempDir(), "run.ckpt")})},
			{"workers2-chaos", sharded("workers2-chaos", chaosCfg, ShardedOptions{
				Workers: 2, RetryBackoff: -1})},
		} {
			line(&b, name, r.mode, r.rep)
		}
		path := filepath.Join(t.TempDir(), "run.ckpt")
		if err := runInterruptedAt(cfg, ShardedOptions{Workers: 2, CheckpointPath: path}, digestResumeShard); !errors.Is(err, ErrInterrupted) {
			t.Fatalf("%s workers2-resume: interrupted run returned %v, want ErrInterrupted", name, err)
		}
		line(&resumes, name, "workers2-resume", sharded("workers2-resume", cfg, ShardedOptions{
			Workers: 2, CheckpointPath: path, Resume: true}))
		if digests["workers2-resume"] != digests["workers2-ckpt"] {
			t.Errorf("%s: the resumed run differs from the uninterrupted workers2-ckpt run", name)
		}
	}
	got := b.String() + resumes.String()
	if *updateDigests {
		if err := os.WriteFile(digestPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("report digests moved (rerun with -update if the change is meant):\n%s",
			lineDiff(string(want), got))
	}
}

// lineDiff lists the lines of want and got that differ, by position.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "- %s\n+ %s\n", wl, gl)
		}
	}
	return b.String()
}
