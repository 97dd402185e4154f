package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sync"
	"time"

	"sqlancerpp/internal/chaos"
	"sqlancerpp/internal/par"
	"sqlancerpp/internal/sqlparse"
)

// ErrInterrupted reports that RunShardedOpts stopped at a shard boundary
// because the Interrupt channel closed. The completed shards up to the
// first one that did not run are already checkpointed (when a checkpoint
// path is configured); a later Resume run continues from there and
// produces a final report byte-identical to an uninterrupted run.
var ErrInterrupted = errors.New("campaign: interrupted")

// Supervisor defaults: a transient shard failure gets two more chances,
// spaced by a doubling backoff capped at 8x the base.
const (
	DefaultShardRetries = 2
	DefaultRetryBackoff = 50 * time.Millisecond
	maxBackoffFactor    = 8
)

// ShardedOptions parameterizes RunShardedOpts.
type ShardedOptions struct {
	// Workers bounds concurrent shard execution (minimum 1). The worker
	// count never affects the merged report, only wall-clock time.
	Workers int
	// CheckpointPath, when set, persists campaign progress to this path
	// as an append-only journal: a header with the configuration
	// fingerprint and the shard seed table, then one checksummed record
	// per completed shard (its report, carrying its tracker's feedback
	// state), appended and fsynced in shard order. Write failures degrade
	// the campaign (counted in Report.CheckpointWriteFailures) instead of
	// aborting it. The file is removed once the campaign completes.
	CheckpointPath string
	// Resume loads CheckpointPath before running and skips the shards it
	// already holds: the longest prefix of records that verify, so a torn
	// tail is dropped and re-run. The checkpoint's configuration
	// fingerprint must match the resolved configuration. A missing file
	// or an unreadable header starts the run fresh instead of refusing to
	// resume.
	Resume bool
	// Interrupt, when closed, stops the run at the next shard boundary
	// with ErrInterrupted. Shards already in flight finish and join the
	// checkpoint behind the shards before them; shards not yet started
	// never start.
	Interrupt <-chan struct{}
	// MaxShardRetries is how many times the supervisor re-runs a shard
	// whose attempt failed (error or recovered panic) before
	// quarantining it: 0 selects DefaultShardRetries, negative disables
	// retries. A quarantined shard contributes an explicit placeholder
	// to the merge — the campaign completes degraded, never aborts on a
	// shard failure.
	MaxShardRetries int
	// RetryBackoff is the base delay between attempts of one shard
	// (doubling per retry, capped at 8x): 0 selects DefaultRetryBackoff,
	// negative disables the delay (tests).
	RetryBackoff time.Duration
}

// checkpointVersion is bumped whenever the checkpoint layout or the
// shard partitioning scheme changes incompatibly. Version 3 is the
// append-only journal.
const checkpointVersion = 3

// checkpointFile is campaign progress: which shards have completed and
// their full reports. Reports round-trip losslessly through JSON (every
// field but the trackers is exported, and the trackers travel as
// FeedbackState and PlanPairState, in base64), which is what makes a
// resumed merge byte-identical to an uninterrupted one.
type checkpointFile struct {
	// Fingerprint pins the resolved configuration (including an FNV-1a
	// hash of the warm-start feedback state) so a checkpoint cannot be
	// resumed under a different campaign setup.
	Fingerprint string
	TotalShards int
	// Seeds holds each shard's derived seed — the next-seed cursor in
	// table form, doubling as a guard against partitioning drift.
	Seeds []int64
	// Shards is indexed by shard ordinal; nil marks an incomplete shard.
	// The journal header leaves it out.
	Shards []*Report `json:",omitempty"`
}

// ckptHeader is the journal's first record: the version and the
// campaign the journal belongs to, without shards.
type ckptHeader struct {
	Version int
	checkpointFile
}

// ckptRecord is the journal record of one finished shard. Record j of a
// journal must hold shard j.
type ckptRecord struct {
	Shard  int
	Report *Report
}

// errInjected is the error chaos-injected infrastructure faults surface.
var errInjected = errors.New("injected chaos fault")

// shardStartHook, when non-nil, is called as each shard that is not
// restored from the checkpoint is about to start, before the interrupt
// check. Shards start in ordinal order, so tests use it to interrupt a
// run at an exact shard. It is nil outside tests.
var shardStartHook func(shard int)

// fingerprintExcluded declares, next to the code it governs, the Config
// fields deliberately NOT rendered by fingerprint(), keyed by field name
// with the reason each exclusion is sound. The sqlint fingerprint
// analyzer (internal/analysis) reads this declaration and fails `go vet`
// whenever a Config field is neither rendered in fingerprint() nor
// listed here — so a new knob can skew -resume only after being argued
// about in review, never by being forgotten.
var fingerprintExcluded = map[string]string{
	"Policy":      "behavior value, unrenderable: checkpointed runs must configure via Mode (which is fingerprinted)",
	"BatchSize":   "inert; kept only for the frozen benchmark harness",
	"CaseTimeout": "wall-clock watchdog is host-dependent infrastructure; hangs never feed reports or validity",
	"Chaos":       "injected infrastructure faults must be survivable — including by a chaos-free -resume",
	"Coverage":    "observer sink: records engine coverage and never feeds generation or the report",
}

// Compile-time guard for the exclusion list: every excluded field must
// still exist on Config under exactly these names, so a rename breaks
// this keyed literal before the analyzer even runs. (The analyzer
// separately rejects stale or contradictory entries.)
var _ = Config{
	Policy:      nil,
	BatchSize:   0,
	CaseTimeout: 0,
	Chaos:       nil,
	Coverage:    nil,
}

// fingerprint renders the resolved configuration fields that determine a
// campaign's behavior; fingerprintExcluded declares (with reasons) the
// fields deliberately left out, and the sqlint fingerprint analyzer
// holds the two views exhaustive over Config.
func fingerprint(cfg Config) string {
	h := fnv.New64a()
	h.Write(cfg.FeedbackState)
	ph := fnv.New64a()
	ph.Write(cfg.PlanPairState)
	return fmt.Sprintf("d=%s m=%d tc=%d ss=%d cpd=%d se=%d seed=%d or=%v tco=%t rp=%g ef=%v th=%g cf=%g ui=%d df=%d sd=%d md=%d di=%d mp=%d nps=%t rb=%t pcl=%d budget=%d kac=%t fs=%x pps=%x",
		cfg.Dialect.Name, cfg.Mode, cfg.TestCases, cfg.SetupStmts,
		cfg.CasesPerDB, cfg.SmokeEvery, cfg.Seed, cfg.Oracles,
		cfg.TypeCorrect, cfg.RiskyProb, cfg.ExtraFunctions,
		cfg.Threshold, cfg.Confidence, cfg.UpdateInterval,
		cfg.DDLMaxFailures, cfg.StartDepth, cfg.MaxDepth,
		cfg.DepthInterval, cfg.MaxPlansPerQuery, cfg.NoPlanPairSched,
		cfg.ReduceBugs, cfg.PerfCostLimit, cfg.RowBudget,
		cfg.KeepAllCases, h.Sum64(), ph.Sum64())
}

// RunShardedOpts is RunSharded with supervision, checkpoint/resume, and
// interruption support. Progress is saved at shard granularity: each
// completed shard's report joins the checkpoint once every shard before
// it has, so an interrupted campaign loses at most the shards that were
// in flight and the finished ones behind them. Shard failures are retried and then quarantined
// (see ShardedOptions.MaxShardRetries); checkpoint write failures are
// counted, not fatal. Only configuration errors, interruption, and a
// failed reduction abort the run. The merged report's bugs are reduced
// after the merge, by one pass at opts.Workers.
func RunShardedOpts(cfg Config, opts ShardedOptions) (*Report, error) {
	if cfg.Dialect == nil {
		return nil, fmt.Errorf("campaign: no dialect configured")
	}
	cfg = cfg.withDefaults()
	warm, err := decodeWarmStart(cfg)
	if err != nil {
		return nil, err
	}
	reps, ckptFailures, err := runShards(cfg, warm, opts)
	if err != nil {
		return nil, err
	}
	merged, err := mergeReports(cfg, warm.tracker, reps)
	if err != nil {
		return nil, err
	}
	merged.CheckpointWriteFailures += ckptFailures
	if err := reduceBugs(cfg, merged.Bugs, opts.Workers, sqlparse.NewCache(parseCacheSize)); err != nil {
		return nil, err
	}
	if opts.CheckpointPath != "" {
		// Campaign complete; nothing to resume. A failed removal is a real
		// error — a stale checkpoint would resurrect this run's shards
		// into the next campaign that reuses the path.
		if rerr := os.Remove(opts.CheckpointPath); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
			return nil, fmt.Errorf("campaign: removing completed checkpoint: %w", rerr)
		}
	}
	return merged, nil
}

// runShards runs (or restores from the checkpoint) every shard of a
// resolved configuration, each from a copy of its decoded prior state
// warm, and returns the shard reports by ordinal, plus the number of
// checkpoint writes that failed.
func runShards(cfg Config, warm warmStart, opts ShardedOptions) ([]*Report, int, error) {
	shards := shardConfigs(cfg)
	nShards := len(shards)
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > nShards {
		workers = nShards
	}
	maxRetries := opts.MaxShardRetries
	if maxRetries == 0 {
		maxRetries = DefaultShardRetries
	} else if maxRetries < 0 {
		maxRetries = 0
	}
	backoff := opts.RetryBackoff
	if backoff == 0 {
		backoff = DefaultRetryBackoff
	} else if backoff < 0 {
		backoff = 0
	}

	cp := &checkpointFile{
		Fingerprint: fingerprint(cfg),
		TotalShards: nShards,
		Seeds:       make([]int64, nShards),
		Shards:      make([]*Report, nShards),
	}
	for i, sc := range shards {
		cp.Seeds[i] = sc.Seed
	}
	// kept is the length of the journal prefix the resume keeps.
	var kept int64
	if opts.Resume && opts.CheckpointPath != "" {
		var err error
		if kept, err = loadCheckpoint(opts.CheckpointPath, cp); err != nil {
			return nil, 0, err
		}
	}

	// A shard whose report fails to encode is never written, and as the
	// journal is in shard order neither is any shard after it; that
	// counts as one checkpoint write failure.
	ckptFailures := 0
	var ckpt *ckptWriter
	if opts.CheckpointPath != "" {
		var err error
		if ckpt, err = newCkptWriter(opts.CheckpointPath, cp, kept, cfg.Chaos); err != nil {
			return nil, 0, err
		}
	}

	var mu sync.Mutex
	err := par.ForEach(nShards, workers, func(i int) error {
		if rep := cp.Shards[i]; rep != nil {
			// Restored from the checkpoint: its state is decoded once, here.
			if err := rep.loadState(); err != nil {
				return fmt.Errorf("campaign: restoring shard %d: %w", i, err)
			}
			return nil
		}
		if shardStartHook != nil {
			shardStartHook(i)
		}
		select {
		case <-opts.Interrupt:
			return ErrInterrupted
		default:
		}
		rep, err := runShardSupervised(shards[i], warm, i, maxRetries, backoff)
		if err != nil {
			return err
		}
		// Encode outside the lock: each shard, with its trackers' JSON, is
		// encoded exactly once, and a save only appends finished records.
		var rec []byte
		var encErr error
		if ckpt != nil {
			if encErr = rep.saveState(); encErr == nil {
				rec, encErr = encodeRecord(ckptRecord{Shard: i, Report: rep})
			}
		}
		mu.Lock()
		defer mu.Unlock()
		cp.Shards[i] = rep
		if ckpt != nil {
			if encErr != nil {
				ckptFailures++
				return nil
			}
			ckpt.pending[i] = rec
			if serr := ckpt.save(); serr != nil {
				// Degrade, don't abort: the campaign keeps running, and the
				// next save appends what this one could not.
				ckptFailures++
			}
		}
		return nil
	})
	if ckpt != nil && ckpt.close() != nil {
		ckptFailures++
	}
	if err != nil {
		return nil, 0, err
	}
	return cp.Shards, ckptFailures, nil
}

// runShardSupervised runs one shard under the supervisor's retry policy:
// a failed attempt (error or recovered panic) is retried with doubling
// capped backoff; when every attempt fails the shard is quarantined —
// the returned placeholder report carries the failure and contributes
// nothing else to the merge. Configuration errors are fatal immediately:
// they would fail identically on every retry and on every other shard.
func runShardSupervised(sc Config, warm warmStart, shard, maxRetries int, backoff time.Duration) (*Report, error) {
	var lastErr error
	for attempt := 1; attempt <= maxRetries+1; attempt++ {
		if attempt > 1 && backoff > 0 {
			d := backoff << (attempt - 2)
			if d > maxBackoffFactor*backoff {
				d = maxBackoffFactor * backoff
			}
			time.Sleep(d)
		}
		rep, fatal, err := runShardAttempt(sc, warm, shard, attempt)
		if err == nil {
			rep.ShardRetries = attempt - 1
			return rep, nil
		}
		if fatal {
			return nil, err
		}
		lastErr = err
	}
	return &Report{
		Counters:      Counters{ShardRetries: maxRetries},
		Quarantined:   true,
		QuarantineErr: lastErr.Error(),
	}, nil
}

// runShardAttempt executes one attempt at one shard behind a recovery
// boundary: a panic anywhere in the shard's runner becomes a retryable
// error with a deterministic message (no stack — retry accounting must
// not vary with scheduling). fatal marks configuration errors, which
// retrying cannot fix. The shard runs without the reduce pass.
func runShardAttempt(sc Config, warm warmStart, shard, attempt int) (rep *Report, fatal bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			rep, fatal, err = nil, false,
				fmt.Errorf("campaign: shard %d attempt %d panicked: %v", shard, attempt, p)
		}
	}()
	switch sc.Chaos.ShardFault(shard, attempt) {
	case chaos.ShardFailError:
		return nil, false, fmt.Errorf("campaign: shard %d attempt %d: %w", shard, attempt, errInjected)
	case chaos.ShardFailPanic:
		panic(fmt.Sprintf("%v (shard %d attempt %d)", errInjected, shard, attempt))
	}
	runner, err := newRunner(sc, warm)
	if err != nil {
		return nil, true, err
	}
	return runner.run(), false, nil
}

// loadCheckpoint restores the completed shards of the checkpoint at
// path into cp, after validating that the checkpoint belongs to this
// exact campaign, and returns the length of the journal prefix a writer
// keeps and appends to. A journal restores its longest prefix of records
// that verify; a torn or garbage tail is dropped. A missing file, or one
// whose header is unreadable, is a fresh start. Version, fingerprint,
// layout and seed mismatches in an intact header remain hard errors:
// they mean the checkpoint is someone else's, not that it is damaged. A
// file that is one JSON object, as builds before the journal wrote
// (version 2), is read for its Version alone and so fails as a version
// mismatch instead of being overwritten by a fresh start.
func loadCheckpoint(path string, cp *checkpointFile) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil // no usable checkpoint: start fresh
	}
	payload, rest, journal := nextRecord(data)
	if !journal {
		// Only a version 2 file, or garbage, is no journal; of its fields
		// the header shares just Version.
		payload = data
	}
	var hdr ckptHeader
	if json.Unmarshal(payload, &hdr) != nil || !journal && hdr.Version == checkpointVersion {
		return 0, nil // no usable checkpoint: start fresh
	}
	if hdr.Version != checkpointVersion {
		return 0, fmt.Errorf("campaign: checkpoint %s has version %d, want %d",
			path, hdr.Version, checkpointVersion)
	}
	if err := matchCheckpoint(path, &hdr.checkpointFile, cp); err != nil {
		return 0, err
	}
	for j := range cp.Shards {
		payload, next, ok := nextRecord(rest)
		var rec ckptRecord
		if !ok || json.Unmarshal(payload, &rec) != nil || rec.Shard != j || rec.Report == nil {
			break
		}
		cp.Shards[j], rest = rec.Report, next
	}
	return int64(len(data) - len(rest)), nil
}

// matchCheckpoint checks that the checkpoint old, read from path, was
// recorded for cp's campaign.
func matchCheckpoint(path string, old, cp *checkpointFile) error {
	if old.Fingerprint != cp.Fingerprint {
		return fmt.Errorf("campaign: checkpoint %s was recorded for a different configuration", path)
	}
	if old.TotalShards != cp.TotalShards || len(old.Seeds) != cp.TotalShards {
		return fmt.Errorf("campaign: checkpoint %s shard layout does not match", path)
	}
	for i, s := range old.Seeds {
		if s != cp.Seeds[i] {
			return fmt.Errorf("campaign: checkpoint %s shard %d seed mismatch", path, i)
		}
	}
	return nil
}

// checksum is FNV-1a-64 over p, hex-rendered. Not cryptographic — it
// defends against torn writes and bit rot, not adversaries.
func checksum(p []byte) string {
	h := fnv.New64a()
	h.Write(p)
	return fmt.Sprintf("%016x", h.Sum64())
}

// encodeRecord renders v as one journal record: its JSON, a space, the
// JSON's checksum and a newline. json.Marshal never emits a raw newline,
// so records are lines.
func encodeRecord(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(append(append(b, ' '), checksum(b)...), '\n'), nil
}

// nextRecord splits the first record off data and returns its JSON;
// ok is false when that record is incomplete or fails its checksum.
func nextRecord(data []byte) (payload, rest []byte, ok bool) {
	line, rest, ok := bytes.Cut(data, []byte{'\n'})
	n := len(line) - len(" 0123456789abcdef")
	if !ok || n < 0 || line[n] != ' ' || string(line[n+1:]) != checksum(line[:n]) {
		return nil, nil, false
	}
	return line[:n], rest, true
}

// ckptWriter appends finished shards to the checkpoint journal in shard
// order, so the file always holds a prefix of the shards and its bytes
// do not depend on the worker count. A save appends every consecutive
// finished shard from the cursor on, in one write plus fsync, at the end
// of the prefix synced so far; a failed append is overwritten by the
// next one.
type ckptWriter struct {
	path string
	inj  *chaos.Injector // nil in production
	f    *os.File        // opened by the first append
	// header is the encoded header record, written with the first append
	// to an empty journal.
	header []byte
	// pending holds the encoded records of finished shards from next on
	// that are not in the journal yet; next is the cursor, the first shard
	// the journal lacks, and off the length of the synced journal.
	pending [][]byte
	next    int
	off     int64
}

// newCkptWriter prepares a writer for cp's campaign that keeps the first
// kept bytes of the journal at path (loadCheckpoint's result; those hold
// the header and cp's leading restored shards) and appends after them.
func newCkptWriter(path string, cp *checkpointFile, kept int64, inj *chaos.Injector) (*ckptWriter, error) {
	hdr := ckptHeader{Version: checkpointVersion, checkpointFile: *cp}
	hdr.Shards = nil
	header, err := encodeRecord(hdr)
	if err != nil {
		return nil, fmt.Errorf("campaign: encoding checkpoint header: %w", err)
	}
	w := &ckptWriter{path: path, inj: inj, header: header, pending: make([][]byte, len(cp.Shards)), off: kept}
	for kept > 0 && w.next < len(cp.Shards) && cp.Shards[w.next] != nil {
		w.next++
	}
	return w, nil
}

// save appends the finished shards from the cursor on. The inj sites
// fault each stage deterministically under chaos testing; every save
// probes them whether or not it has records to append, so probe ordinals
// count saves.
func (w *ckptWriter) save() error {
	inj := w.inj
	if inj.CheckpointFault(chaos.CheckpointMarshal) {
		return fmt.Errorf("campaign: encoding checkpoint: %w", errInjected)
	}
	var data []byte
	if w.off == 0 {
		data = append(data, w.header...)
	}
	end := w.next
	for ; end < len(w.pending) && w.pending[end] != nil; end++ {
		data = append(data, w.pending[end]...)
	}
	if inj.CheckpointFault(chaos.CheckpointTorn) {
		// A torn append that reports success: half the bytes land and the
		// writer carries on after them. On load the torn record fails its
		// checksum, so it and every record after it are dropped.
		data = data[:len(data)/2]
	}
	if inj.CheckpointFault(chaos.CheckpointWrite) {
		return fmt.Errorf("campaign: appending to checkpoint: %w", errInjected)
	}
	if len(data) > 0 {
		if err := w.writeAt(data); err != nil {
			return fmt.Errorf("campaign: appending to checkpoint: %w", err)
		}
	}
	if inj.CheckpointFault(chaos.CheckpointSync) {
		return fmt.Errorf("campaign: syncing checkpoint: %w", errInjected)
	}
	if len(data) > 0 {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("campaign: syncing checkpoint: %w", err)
		}
	}
	w.off += int64(len(data))
	clear(w.pending[w.next:end])
	w.next = end
	return nil
}

// writeAt writes data at the end of the synced journal. The first write
// opens the file and cuts it there, so nothing of an older file or of a
// dropped tail follows the appended records.
func (w *ckptWriter) writeAt(data []byte) error {
	if w.f == nil {
		f, err := os.OpenFile(w.path, os.O_WRONLY|os.O_CREATE, 0o600)
		if err != nil {
			return err
		}
		if err := f.Truncate(w.off); err != nil {
			f.Close()
			return err
		}
		w.f = f
	}
	_, err := w.f.WriteAt(data, w.off)
	return err
}

// close closes the journal file, if an append opened it.
func (w *ckptWriter) close() error {
	if w.f == nil {
		return nil
	}
	return w.f.Close()
}
