package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sqlancerpp/internal/chaos"
	"sqlancerpp/internal/par"
)

// ErrInterrupted reports that RunShardedOpts stopped at a shard boundary
// because the Interrupt channel closed. Completed shards are already
// checkpointed (when a checkpoint path is configured); a later Resume
// run continues exactly where this one stopped and produces a final
// report byte-identical to an uninterrupted run.
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
	// CheckpointPath, when set, persists campaign progress: after every
	// completed shard the per-shard reports (each carrying its tracker's
	// feedback state) and the shard seed table are written atomically
	// (unique temp file + fsync + rename, with the previous generation
	// rotated to CheckpointPath+".bak") to this path. Write failures
	// degrade the campaign (counted in Report.CheckpointWriteFailures)
	// instead of aborting it. Both generations are removed once the
	// campaign completes.
	CheckpointPath string
	// Resume loads CheckpointPath before running and skips the shards it
	// already holds. The checkpoint's configuration fingerprint must
	// match the resolved configuration. A missing or corrupt file falls
	// back to the ".bak" last-known-good generation, and with no usable
	// ".bak" either the run starts fresh instead of refusing to resume.
	Resume bool
	// Interrupt, when closed, stops the run at the next shard boundary
	// with ErrInterrupted. Shards already in flight finish and are
	// checkpointed; shards not yet started never start.
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
// shard partitioning scheme changes incompatibly. Version 2 wraps the
// payload in a checksummed envelope and adds the ".bak" generation.
const checkpointVersion = 2

// checkpointEnvelope is the on-disk frame around the checkpoint payload:
// a version and an FNV-1a content checksum that makes every checkpoint
// self-verifying. A torn or bit-flipped file fails the checksum and is
// treated as corrupt (salvageable), while a version or fingerprint
// mismatch inside an *intact* file stays a hard error — corruption and
// misuse must not be confused.
type checkpointEnvelope struct {
	Version  int
	Checksum string
	Payload  json.RawMessage
}

// checkpointFile is the serialized campaign progress: which shards have
// completed and their full reports. Reports round-trip losslessly
// through JSON (every field is exported; FeedbackState is base64), which
// is what makes a resumed merge byte-identical to an uninterrupted one.
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
	// It must stay the last field: ckptWriter splices the cached shard
	// encodings in after the encoding of the fields above.
	Shards []*Report
}

// errCkptCorrupt marks a checkpoint generation that cannot be trusted:
// unreadable, unparseable, or failing its checksum. loadCheckpoint
// responds by salvaging the previous generation, never by aborting.
var errCkptCorrupt = errors.New("campaign: checkpoint corrupt")

// errInjected is the error chaos-injected infrastructure faults surface.
var errInjected = errors.New("injected chaos fault")

// fingerprintExcluded declares, next to the code it governs, the Config
// fields deliberately NOT rendered by fingerprint(), keyed by field name
// with the reason each exclusion is sound. The sqlint fingerprint
// analyzer (internal/analysis) reads this declaration and fails `go vet`
// whenever a Config field is neither rendered in fingerprint() nor
// listed here — so a new knob can skew -resume only after being argued
// about in review, never by being forgotten.
var fingerprintExcluded = map[string]string{
	"Policy":      "behavior value, unrenderable: checkpointed runs must configure via Mode (which is fingerprinted)",
	"BatchSize":   "execution is observationally identical at every batch width (columnar parity contract)",
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
// completed shard's report is written to the checkpoint before the next
// one is merged in, so an interrupted campaign loses at most the shards
// that were in flight. Shard failures are retried and then quarantined
// (see ShardedOptions.MaxShardRetries); checkpoint write failures are
// counted, not fatal. Only configuration errors and interruption abort
// the run.
func RunShardedOpts(cfg Config, opts ShardedOptions) (*Report, error) {
	if cfg.Dialect == nil {
		return nil, fmt.Errorf("campaign: no dialect configured")
	}
	cfg = cfg.withDefaults()
	reps, ckptFailures, err := runShards(cfg, opts)
	if err != nil {
		return nil, err
	}
	merged, err := mergeReports(cfg, reps)
	if err != nil {
		return nil, err
	}
	merged.CheckpointWriteFailures += ckptFailures
	if opts.CheckpointPath != "" {
		// Campaign complete; nothing to resume. A failed removal is a real
		// error — a stale checkpoint would resurrect this run's shards
		// into the next campaign that reuses the path.
		for _, p := range []string{opts.CheckpointPath, opts.CheckpointPath + ".bak"} {
			if rerr := os.Remove(p); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
				return nil, fmt.Errorf("campaign: removing completed checkpoint: %w", rerr)
			}
		}
	}
	return merged, nil
}

// runShards runs (or restores from the checkpoint) every shard of a
// resolved configuration and returns the shard reports by ordinal, plus
// the number of checkpoint writes that failed.
func runShards(cfg Config, opts ShardedOptions) ([]*Report, int, error) {
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
	if opts.Resume && opts.CheckpointPath != "" {
		if err := loadCheckpoint(opts.CheckpointPath, cp); err != nil {
			return nil, 0, err
		}
	}

	// A shard is published to the index only once its encoding sits in
	// the checkpoint writer, so every checkpoint generation holding a
	// shard that skipped a reduction also holds the shard that made the
	// bug redundant. A shard whose report fails to encode is never
	// written and never published; that counts as a checkpoint write
	// failure.
	idx := newShardIndex(nShards)
	ckptFailures := 0
	var ckpt *ckptWriter
	if opts.CheckpointPath != "" {
		var err error
		if ckpt, err = newCkptWriter(opts.CheckpointPath, cp, cfg.Chaos); err != nil {
			return nil, 0, err
		}
	}
	for i, rep := range cp.Shards {
		if rep == nil {
			continue
		}
		if ckpt != nil {
			enc, err := json.Marshal(rep)
			if err != nil {
				ckptFailures++
				continue
			}
			ckpt.setShard(i, enc)
		}
		idx.publish(i, rep)
	}

	var mu sync.Mutex
	err := par.ForEach(nShards, workers, func(i int) error {
		if cp.Shards[i] != nil {
			return nil // restored from the checkpoint
		}
		select {
		case <-opts.Interrupt:
			return ErrInterrupted
		default:
		}
		rep, err := runShardSupervised(shards[i], i, maxRetries, backoff, idx.mergeDrops(i))
		if err != nil {
			return err
		}
		// Encode outside the lock: each shard is encoded exactly once,
		// and a save only splices the cached encodings together.
		var enc []byte
		var encErr error
		if ckpt != nil {
			enc, encErr = json.Marshal(rep)
		}
		mu.Lock()
		defer mu.Unlock()
		cp.Shards[i] = rep
		if ckpt != nil {
			if encErr != nil {
				ckptFailures++
				return nil
			}
			ckpt.setShard(i, enc)
			if serr := ckpt.save(); serr != nil {
				// Degrade, don't abort: the campaign keeps running and
				// only risks redoing this generation's shards on a crash.
				ckptFailures++
			}
		}
		idx.publish(i, rep)
		return nil
	})
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
//
// mergeDrops is the shard's view of the finished-shard index (see
// shardIndex); every attempt runs with it.
func runShardSupervised(sc Config, shard, maxRetries int, backoff time.Duration, mergeDrops func([]string) bool) (*Report, error) {
	var lastErr error
	for attempt := 1; attempt <= maxRetries+1; attempt++ {
		if attempt > 1 && backoff > 0 {
			d := backoff << (attempt - 2)
			if d > maxBackoffFactor*backoff {
				d = maxBackoffFactor * backoff
			}
			time.Sleep(d)
		}
		rep, fatal, err := runShardAttempt(sc, shard, attempt, mergeDrops)
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
// retrying cannot fix.
func runShardAttempt(sc Config, shard, attempt int, mergeDrops func([]string) bool) (rep *Report, fatal bool, err error) {
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
	runner, err := New(sc)
	if err != nil {
		return nil, true, err
	}
	runner.mergeDrops = mergeDrops
	rep, err = runner.Run()
	if err != nil {
		return nil, false, err
	}
	return rep, false, nil
}

// loadCheckpoint restores completed shards from path into cp after
// validating that the checkpoint belongs to this exact campaign. A
// missing or corrupt primary falls back to the ".bak" last-known-good
// generation: a save leaves only ".bak" between its rotation and its
// commit (and after a failed commit), and a torn write leaves a corrupt
// primary beside it. With no usable ".bak" either, the run starts from
// scratch instead of refusing to resume. A corrupt primary salvaged
// this way is removed, so the next save cannot rotate it over the good
// ".bak". Version, fingerprint, and shard-layout mismatches in an
// intact file remain hard errors: they mean the checkpoint is someone
// else's, not that it is damaged.
func loadCheckpoint(path string, cp *checkpointFile) error {
	src := path
	old, err := loadCheckpointFile(path)
	primaryCorrupt := errors.Is(err, errCkptCorrupt)
	switch {
	case err == nil:
	case errors.Is(err, os.ErrNotExist), primaryCorrupt:
		src = path + ".bak"
		bak, bakErr := loadCheckpointFile(src)
		switch {
		case bakErr == nil:
			old = bak
		case errors.Is(bakErr, os.ErrNotExist), errors.Is(bakErr, errCkptCorrupt):
			return nil // no usable generation: start fresh
		default:
			return bakErr
		}
	default:
		return err
	}
	if old.Fingerprint != cp.Fingerprint {
		return fmt.Errorf("campaign: checkpoint %s was recorded for a different configuration", src)
	}
	if old.TotalShards != cp.TotalShards ||
		len(old.Shards) != cp.TotalShards || len(old.Seeds) != cp.TotalShards {
		return fmt.Errorf("campaign: checkpoint %s shard layout does not match", src)
	}
	for i, s := range old.Seeds {
		if s != cp.Seeds[i] {
			return fmt.Errorf("campaign: checkpoint %s shard %d seed mismatch", src, i)
		}
	}
	if primaryCorrupt {
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("campaign: removing corrupt checkpoint: %w", err)
		}
	}
	copy(cp.Shards, old.Shards)
	return nil
}

// loadCheckpointFile reads and verifies one checkpoint generation.
// Unreadable bytes, a broken envelope, a failed checksum, or an
// undecodable payload all report errCkptCorrupt (salvageable); an intact
// envelope with the wrong version is a hard error.
func loadCheckpointFile(path string) (*checkpointFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: reading %s: %v", errCkptCorrupt, path, err)
	}
	var env checkpointEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: parsing %s: %v", errCkptCorrupt, path, err)
	}
	if env.Version != checkpointVersion {
		return nil, fmt.Errorf("campaign: checkpoint %s has version %d, want %d",
			path, env.Version, checkpointVersion)
	}
	if env.Checksum != ckptChecksum(env.Payload) {
		return nil, fmt.Errorf("%w: %s checksum mismatch", errCkptCorrupt, path)
	}
	var cf checkpointFile
	if err := json.Unmarshal(env.Payload, &cf); err != nil {
		return nil, fmt.Errorf("%w: decoding %s payload: %v", errCkptCorrupt, path, err)
	}
	return &cf, nil
}

// ckptChecksum is the envelope's content checksum: FNV-1a-64 over the
// payload bytes, hex-rendered. Not cryptographic — it defends against
// torn writes and bit rot, not adversaries.
func ckptChecksum(payload []byte) string {
	return fmt.Sprintf("%016x", fnv1a(fnvOffset64, payload))
}

// FNV-1a-64 parameters, as in hash/fnv. The checkpoint writer keeps the
// running state between saves, which hash/fnv does not expose cheaply.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnv1a continues an FNV-1a-64 hash from state h over p.
func fnv1a(h uint64, p []byte) uint64 {
	for _, c := range p {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// ckptEnvelopeHead is the envelope up to its checksum, which is always
// ckptChecksum's 16 hex digits.
var ckptEnvelopeHead = fmt.Sprintf(`{"Version":%d,"Checksum":"`, checkpointVersion)

// ckptWriter persists campaign progress. Each shard's report is encoded
// once, when the shard finishes (setShard); a save splices the cached
// encodings into the checksummed envelope, producing exactly the bytes
// of json.Marshal(checkpointEnvelope{Payload: json.Marshal(
// checkpointFile)}) without re-encoding or re-compacting any report.
//
// The writer also keeps its last encoding: slots before the first shard
// set since then are reused as they are, together with the payload
// checksum state at that point. Shards finish roughly in order, so a
// save hashes and copies little more than the newly finished shard.
type ckptWriter struct {
	path string
	inj  *chaos.Injector // nil in production
	// shards holds each shard's encoded report; nil encodes as null, an
	// incomplete shard.
	shards [][]byte
	// buf holds the last encoding, cut after the shard slots. Slot i
	// starts at buf[offs[i]], where the payload's FNV-1a state is
	// sums[i]; offs[len(shards)] is where the slots end. Slots from
	// dirty on are re-encoded by the next save.
	buf   []byte
	offs  []int
	sums  []uint64
	dirty int
}

// newCkptWriter prepares a writer for cp's campaign with no shard
// encoded yet.
func newCkptWriter(path string, cp *checkpointFile, inj *chaos.Injector) (*ckptWriter, error) {
	hdr := *cp
	hdr.Shards = []*Report{}
	head, err := json.Marshal(&hdr)
	if err != nil {
		return nil, fmt.Errorf("campaign: encoding checkpoint header: %w", err)
	}
	head = head[:len(head)-len("]}")] // reopen the empty Shards array
	n := len(cp.Shards)
	w := &ckptWriter{
		path:   path,
		inj:    inj,
		shards: make([][]byte, n),
		offs:   make([]int, n+1),
		sums:   make([]uint64, n+1),
	}
	w.buf = append(w.buf, ckptEnvelopeHead+"0000000000000000"+`","Payload":`...)
	w.buf = append(w.buf, head...)
	w.offs[0], w.sums[0] = len(w.buf), fnv1a(fnvOffset64, head)
	return w, nil
}

// setShard caches shard i's encoded report for the following saves.
func (w *ckptWriter) setShard(i int, enc []byte) {
	w.shards[i] = enc
	w.dirty = min(w.dirty, i)
}

// encode renders the envelope {"Version":…,"Checksum":…,"Payload":…}.
// json.Marshal already emits compact, HTML-escaped JSON for every piece,
// so splicing them reproduces its output for the whole envelope byte for
// byte. The result aliases the writer's buffer until the next encode.
func (w *ckptWriter) encode() []byte {
	b, h := w.buf[:w.offs[w.dirty]], w.sums[w.dirty]
	for i := w.dirty; i < len(w.shards); i++ {
		w.offs[i], w.sums[i] = len(b), h
		if i > 0 {
			b = append(b, ',')
		}
		if enc := w.shards[i]; enc != nil {
			b = append(b, enc...)
		} else {
			b = append(b, "null"...)
		}
		h = fnv1a(h, b[w.offs[i]:])
	}
	n := len(w.shards)
	w.offs[n], w.sums[n], w.dirty = len(b), h, n
	b = append(b, "]}"...)
	h = fnv1a(h, b[len(b)-len("]}"):])
	copy(b[len(ckptEnvelopeHead):], fmt.Sprintf("%016x", h))
	b = append(b, '}')
	w.buf = b
	return b
}

// save writes the checkpoint atomically and durably: the checksummed
// envelope goes to a unique O_EXCL temp file in the same directory
// (concurrent campaigns sharing a path can no longer clobber each
// other's temp), is fsynced, and replaces the checkpoint via rename —
// with the previous generation first rotated to path+".bak" as the
// salvage target for torn-write recovery. The inj sites fault each stage
// deterministically under chaos testing.
func (w *ckptWriter) save() error {
	path, inj := w.path, w.inj
	if inj.CheckpointFault(chaos.CheckpointMarshal) {
		return fmt.Errorf("campaign: encoding checkpoint: %w", errInjected)
	}
	data := w.encode()
	if inj.CheckpointFault(chaos.CheckpointTorn) {
		// A torn write that still commits: half the bytes reach the final
		// rename. The checksum catches it on load and the .bak generation
		// salvages the resume.
		data = data[:len(data)/2]
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("campaign: creating checkpoint temp file: %w", err)
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil && inj.CheckpointFault(chaos.CheckpointWrite) {
		err = errInjected
	}
	if err == nil {
		// fsync before rename: the rename must never become visible ahead
		// of the data it points at.
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("campaign: writing checkpoint: %w", err)
	}
	// Rotate the current generation to last-known-good. Between this
	// rename and the next, path does not exist — a crash in that window
	// resumes from .bak, which is exactly what .bak is for.
	if err := os.Rename(path, path+".bak"); err != nil && !errors.Is(err, os.ErrNotExist) {
		os.Remove(tmp)
		return fmt.Errorf("campaign: rotating checkpoint generation: %w", err)
	}
	if inj.CheckpointFault(chaos.CheckpointRename) {
		os.Remove(tmp)
		return fmt.Errorf("campaign: committing checkpoint: %w", errInjected)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("campaign: committing checkpoint: %w", err)
	}
	return nil
}
