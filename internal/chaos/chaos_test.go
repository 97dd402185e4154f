package chaos

import (
	"strings"
	"testing"
)

func TestParseEmpty(t *testing.T) {
	for _, spec := range []string{"", "  ", ";;"} {
		in, err := Parse(spec, 1)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if spec == ";;" {
			// ";;" is a non-empty spec of empty directives: a valid,
			// never-firing injector.
			continue
		}
		if in != nil {
			t.Fatalf("Parse(%q) = %+v, want nil", spec, in)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus-site=1",
		"ckpt-rename=1",
		"ckpt-write",
		"ckpt-write=0",
		"ckpt-write=x",
		"ckpt-write=~0",
		"shard-error=-1",
		"shard-error=1x0",
		"shard-error=ax2",
	} {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q): want error, got nil", spec)
		}
	}
}

func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if in.CheckpointFault(CheckpointWrite) {
		t.Error("nil CheckpointFault fired")
	}
	if in.ShardFault(0, 1) != ShardOK {
		t.Error("nil ShardFault fired")
	}
	if in.StallCase(1) {
		t.Error("nil StallCase fired")
	}
	if in.Fired(CheckpointWrite) != 0 || in.Spec() != "" {
		t.Error("nil accessors not zero")
	}
}

func TestCheckpointOrdinals(t *testing.T) {
	in, err := Parse("ckpt-write=1,3", 7)
	if err != nil {
		t.Fatal(err)
	}
	var got []bool
	for i := 0; i < 5; i++ {
		got = append(got, in.CheckpointFault(CheckpointWrite))
	}
	want := []bool{true, false, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("probe %d fired=%v, want %v", i+1, got[i], want[i])
		}
	}
	if in.Fired(CheckpointWrite) != 2 {
		t.Fatalf("Fired = %d, want 2", in.Fired(CheckpointWrite))
	}
	// Independent counters per site.
	if in.CheckpointFault(CheckpointSync) {
		t.Fatal("un-specced site fired")
	}
}

func TestShardRules(t *testing.T) {
	in, err := Parse("shard-error=1x2;shard-panic=3", 7)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 1 fails its first two attempts, then recovers.
	if k := in.ShardFault(1, 1); k != ShardFailError {
		t.Fatalf("shard 1 attempt 1: %v", k)
	}
	if k := in.ShardFault(1, 2); k != ShardFailError {
		t.Fatalf("shard 1 attempt 2: %v", k)
	}
	if k := in.ShardFault(1, 3); k != ShardOK {
		t.Fatalf("shard 1 attempt 3: %v", k)
	}
	// Bare index means one failure.
	if k := in.ShardFault(3, 1); k != ShardFailPanic {
		t.Fatalf("shard 3 attempt 1: %v", k)
	}
	if k := in.ShardFault(3, 2); k != ShardOK {
		t.Fatalf("shard 3 attempt 2: %v", k)
	}
	// Untouched shards never fault.
	if k := in.ShardFault(0, 1); k != ShardOK {
		t.Fatalf("shard 0: %v", k)
	}
}

func TestShardPanicOutranksError(t *testing.T) {
	in, err := Parse("shard-error=2x5;shard-panic=2x1", 7)
	if err != nil {
		t.Fatal(err)
	}
	if k := in.ShardFault(2, 1); k != ShardFailPanic {
		t.Fatalf("attempt 1: %v, want panic", k)
	}
	if k := in.ShardFault(2, 2); k != ShardFailError {
		t.Fatalf("attempt 2: %v, want error", k)
	}
}

func TestStallCaseMembership(t *testing.T) {
	in, err := Parse("case-stall=2", 7)
	if err != nil {
		t.Fatal(err)
	}
	// Membership, not a counter: repeated probes of the same ordinal
	// agree, and every runner sees the same answer for its case 2.
	for i := 0; i < 3; i++ {
		if in.StallCase(1) {
			t.Fatal("case 1 stalled")
		}
		if !in.StallCase(2) {
			t.Fatal("case 2 did not stall")
		}
	}
}

func TestSeededRateDeterministic(t *testing.T) {
	firing := func(seed int64) string {
		in, err := Parse("ckpt-write=~3", seed)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i := 0; i < 64; i++ {
			if in.CheckpointFault(CheckpointWrite) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return b.String()
	}
	a, b := firing(42), firing(42)
	if a != b {
		t.Fatalf("same seed, different firing sets:\n%s\n%s", a, b)
	}
	if !strings.Contains(a, "1") {
		t.Fatal("rate ~3 never fired in 64 probes")
	}
	if firing(43) == a {
		t.Fatal("different seeds produced identical firing sets (suspicious hash)")
	}
}

func TestSpecRoundTrip(t *testing.T) {
	const spec = "ckpt-torn=1;shard-error=0x2"
	in, err := Parse(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if in.Spec() != spec {
		t.Fatalf("Spec() = %q, want %q", in.Spec(), spec)
	}
}
