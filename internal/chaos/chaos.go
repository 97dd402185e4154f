// Package chaos is a seeded, deterministic injection registry for
// *infrastructure* faults — the harness's own failure modes, as opposed
// to the DBMS logic-fault catalogue in internal/faults. A campaign
// supervisor that retries failing shards, drops torn checkpoint tails,
// and times out hung cases is only trustworthy if every one of those
// recovery paths is provoked on demand; this package is how the tests
// (and the `-chaos` flag) provoke them.
//
// The two fault planes never mix: faults.* simulates bugs in the system
// under test (the campaign must *report* them), chaos.* simulates
// failures of the testing harness itself (the campaign must *survive*
// them, and a chaos run's findings must match a chaos-free run's).
//
// # Injection sites
//
//	ckpt-marshal   checkpoint encoding fails
//	ckpt-write     checkpoint journal append fails
//	ckpt-sync      checkpoint journal fsync fails
//	ckpt-torn      checkpoint append lands torn (truncated) bytes and reports success
//	shard-error    a shard attempt fails with an error
//	shard-panic    a shard attempt panics
//	case-stall     an oracle case hangs until the watchdog fires
//
// # Spec grammar
//
// A spec is a ';'-separated list of directives, each "site=args":
//
//   - Checkpoint sites and case-stall take a comma-separated list of
//     1-based probe ordinals ("ckpt-write=1,3" fails the first and third
//     checkpoint writes; "case-stall=5" stalls each runner's fifth
//     oracle case), or "~N" to fire on roughly one in N probes, chosen
//     by a seeded hash so the firing set is a pure function of
//     (seed, site, ordinal) — reproducible, but spread like a fleet's
//     real fault arrivals rather than hand-picked.
//   - Shard sites take a comma-separated list of "SxN" terms: shard S
//     fails its first N attempts ("shard-error=1x2" makes shard 1 fail
//     twice and then succeed — the canonical retry-then-recover case;
//     "shard-panic=0x99" quarantines shard 0 outright).
//
// All probes are keyed by stable identifiers (probe ordinal, shard
// index, attempt number), never by wall-clock or goroutine identity, so
// a chaos campaign fires the same faults at every worker count.
package chaos

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
)

// Site names one infrastructure-fault injection point.
type Site string

// Injection sites.
const (
	CheckpointMarshal Site = "ckpt-marshal"
	CheckpointWrite   Site = "ckpt-write"
	CheckpointSync    Site = "ckpt-sync"
	CheckpointTorn    Site = "ckpt-torn"
	ShardError        Site = "shard-error"
	ShardPanic        Site = "shard-panic"
	CaseStall         Site = "case-stall"
)

// counterSites are the sites addressed by probe ordinal.
var counterSites = map[Site]bool{
	CheckpointMarshal: true,
	CheckpointWrite:   true,
	CheckpointSync:    true,
	CheckpointTorn:    true,
	CaseStall:         true,
}

// ShardFaultKind is the outcome of probing the shard sites for one
// (shard, attempt) pair.
type ShardFaultKind int

// Shard-probe outcomes. Panic outranks error when both rules match the
// same attempt.
const (
	ShardOK ShardFaultKind = iota
	ShardFailError
	ShardFailPanic
)

// shardRule fails the first Times attempts of shard Shard.
type shardRule struct {
	shard, times int
}

// Injector decides, deterministically, which probes of which sites
// fire. The zero of *Injector (nil) is a valid no-op injector: every
// probe method is nil-safe, so callers thread it through unconditionally.
// A non-nil Injector is safe for concurrent use — shard workers probe it
// in parallel.
type Injector struct {
	seed int64
	spec string

	mu sync.Mutex
	// ordinals[site] is the explicit 1-based probe-ordinal firing set.
	ordinals map[Site]map[int]bool
	// rates[site] is the "~N" seeded rate (0 = none).
	rates map[Site]uint64
	// counts[site] is the running probe counter for checkpoint sites.
	counts map[Site]int
	// fired[site] tallies probes that fired (test and report surface).
	fired      map[Site]int
	shardErr   []shardRule
	shardPanic []shardRule
}

// Parse builds an injector from a spec string (see the package comment
// for the grammar). An empty spec returns nil — injection off.
func Parse(spec string, seed int64) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	in := &Injector{
		seed:     seed,
		spec:     spec,
		ordinals: map[Site]map[int]bool{},
		rates:    map[Site]uint64{},
		counts:   map[Site]int{},
		fired:    map[Site]int{},
	}
	for _, dir := range strings.Split(spec, ";") {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		eq := strings.IndexByte(dir, '=')
		if eq < 0 {
			return nil, fmt.Errorf("chaos: directive %q: want site=args", dir)
		}
		site, args := Site(strings.TrimSpace(dir[:eq])), strings.TrimSpace(dir[eq+1:])
		switch {
		case counterSites[site]:
			if err := in.parseOrdinals(site, args); err != nil {
				return nil, err
			}
		case site == ShardError || site == ShardPanic:
			rules, err := parseShardRules(site, args)
			if err != nil {
				return nil, err
			}
			if site == ShardError {
				in.shardErr = append(in.shardErr, rules...)
			} else {
				in.shardPanic = append(in.shardPanic, rules...)
			}
		default:
			return nil, fmt.Errorf("chaos: unknown site %q", site)
		}
	}
	return in, nil
}

// parseOrdinals parses "1,3,7" or "~N" for a counter-addressed site.
func (in *Injector) parseOrdinals(site Site, args string) error {
	if strings.HasPrefix(args, "~") {
		n, err := strconv.ParseUint(args[1:], 10, 32)
		if err != nil || n == 0 {
			return fmt.Errorf("chaos: %s=%s: want ~N with N >= 1", site, args)
		}
		in.rates[site] = n
		return nil
	}
	set := in.ordinals[site]
	if set == nil {
		set = map[int]bool{}
		in.ordinals[site] = set
	}
	for _, tok := range strings.Split(args, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || n < 1 {
			return fmt.Errorf("chaos: %s=%s: ordinal %q is not a positive integer", site, args, tok)
		}
		set[n] = true
	}
	return nil
}

// parseShardRules parses "SxN[,SxN...]" (N defaults to 1 for a bare
// shard index).
func parseShardRules(site Site, args string) ([]shardRule, error) {
	var rules []shardRule
	for _, tok := range strings.Split(args, ",") {
		tok = strings.TrimSpace(tok)
		shard, times := tok, "1"
		if x := strings.IndexByte(tok, 'x'); x >= 0 {
			shard, times = tok[:x], tok[x+1:]
		}
		s, err := strconv.Atoi(shard)
		if err != nil || s < 0 {
			return nil, fmt.Errorf("chaos: %s=%s: shard index %q is not a non-negative integer", site, args, shard)
		}
		n, err := strconv.Atoi(times)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("chaos: %s=%s: attempt count %q is not a positive integer", site, args, times)
		}
		rules = append(rules, shardRule{shard: s, times: n})
	}
	return rules, nil
}

// Spec returns the spec the injector was parsed from ("" for nil).
func (in *Injector) Spec() string {
	if in == nil {
		return ""
	}
	return in.spec
}

// CheckpointFault advances site's probe counter and reports whether
// this probe fires. Valid for the four ckpt-* sites.
func (in *Injector) CheckpointFault(site Site) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.counts[site]++
	return in.fires(site, in.counts[site])
}

// ShardFault reports the injected outcome for one attempt (1-based) at
// running one shard. Probes are keyed by (shard, attempt), not by any
// global counter, so concurrent shard workers see the same faults at
// every worker count.
func (in *Injector) ShardFault(shard, attempt int) ShardFaultKind {
	if in == nil {
		return ShardOK
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.shardPanic {
		if r.shard == shard && attempt <= r.times {
			in.fired[ShardPanic]++
			return ShardFailPanic
		}
	}
	for _, r := range in.shardErr {
		if r.shard == shard && attempt <= r.times {
			in.fired[ShardError]++
			return ShardFailError
		}
	}
	return ShardOK
}

// StallCase reports whether the runner-local oracle case with this
// 1-based ordinal stalls. The probe is pure membership — no internal
// counter — so every shard's case N behaves identically regardless of
// scheduling.
func (in *Injector) StallCase(ordinal int) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fires(CaseStall, ordinal)
}

// fires decides one (site, ordinal) probe under in.mu.
func (in *Injector) fires(site Site, ordinal int) bool {
	if in.ordinals[site][ordinal] {
		in.fired[site]++
		return true
	}
	if r := in.rates[site]; r > 0 && seededHash(in.seed, site, ordinal)%r == 0 {
		in.fired[site]++
		return true
	}
	return false
}

// Fired returns how many probes of site have fired so far.
func (in *Injector) Fired(site Site) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[site]
}

// seededHash is the "~N" rate's firing function: FNV-1a over
// (seed, site, ordinal), so the firing set is reproducible from the
// campaign seed yet uncorrelated across sites and ordinals.
func seededHash(seed int64, site Site, ordinal int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(site))
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(ordinal) >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64()
}
