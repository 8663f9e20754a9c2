package fault

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"sysrle/internal/core"
	"sysrle/internal/rle"
	"sysrle/internal/telemetry"
)

// randomRow builds a valid random row on [0, width).
func randomRow(rng *rand.Rand, width int) rle.Row {
	var bits []bool
	bits = make([]bool, width)
	for i := range bits {
		bits[i] = rng.Intn(3) == 0
	}
	return rle.FromBits(bits)
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("rate=0.25,seed=42,kinds=panic+slow,slow=5ms")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{Seed: 42, Rate: 0.25, Kinds: []Kind{KindPanic, KindSlow}, SlowFor: 5 * time.Millisecond}
	if !reflect.DeepEqual(p, want) {
		t.Errorf("got %+v want %+v", p, want)
	}
	// Round trip through String.
	back, err := ParsePlan(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, p) {
		t.Errorf("round trip %+v != %+v", back, p)
	}
	if _, err := ParsePlan(""); err != nil {
		t.Errorf("empty plan should parse: %v", err)
	}
	for _, bad := range []string{
		"rate=2", "rate=x", "seed=x", "kinds=quantum", "slow=-1s", "slow=x", "bogus=1", "noequals",
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

// TestDeterministicSchedule: the same seed must replay the same
// faults — the property that makes chaos runs reproducible.
func TestDeterministicSchedule(t *testing.T) {
	rows := make([]rle.Row, 64)
	rng := rand.New(rand.NewSource(7))
	for i := range rows {
		rows[i] = randomRow(rng, 80)
	}
	run := func() map[Kind]int64 {
		inj := NewInjector(Plan{Seed: 99, Rate: 0.5, SlowFor: time.Microsecond}, nil)
		eng := Wrap(core.Lockstep{}, inj)
		for i := 0; i+1 < len(rows); i++ {
			func() {
				defer func() { recover() }() // injected panics are expected
				_, _ = eng.XORRow(rows[i], rows[i+1])
			}()
		}
		return inj.Injected()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different faults: %v vs %v", a, b)
	}
	var total int64
	for _, n := range a {
		total += n
	}
	if total == 0 {
		t.Error("rate=0.5 over 63 calls injected nothing")
	}
}

func TestWrapNilInjector(t *testing.T) {
	inner := core.Sequential{}
	if got := Wrap(inner, nil); got != core.Engine(inner) {
		t.Errorf("Wrap(e, nil) = %v, want inner unchanged", got)
	}
}

// TestEachKindDetectedAndRecovered is the detect-and-recover loop per
// fault class: with rate=1 every call faults, and the verified engine
// must still converge to the sequential baseline's answer.
func TestEachKindDetectedAndRecovered(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			inj := NewInjector(Plan{Seed: 5, Rate: 1, Kinds: []Kind{kind}, SlowFor: time.Microsecond}, nil)
			faults := 0
			v := core.NewVerified(Wrap(core.Lockstep{}, inj))
			v.OnFault = func(error) { faults++ }
			applied := false
			for i := 0; i < 32; i++ {
				a, b := randomRow(rng, 60), randomRow(rng, 60)
				want, _ := core.AppendSequentialXOR(nil, a, b)
				res, err := v.XORRow(a, b)
				if err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
				if !res.Row.EqualBits(want) {
					t.Fatalf("call %d: got %v want %v", i, res.Row, want)
				}
				applied = applied || inj.Total() > 0
			}
			if !applied {
				t.Fatal("no fault of this kind was ever applied")
			}
			// Slow faults delay but do not corrupt, so detection only
			// fires for the value/control classes.
			if kind != KindSlow && faults == 0 {
				t.Errorf("kind %s: faults applied (%v) but none detected", kind, inj.Injected())
			}
			if kind == KindSlow && faults != 0 {
				t.Errorf("slow faults should not trip detection, got %d", faults)
			}
		})
	}
}

// TestInjectedErrorIsTyped: transient injected errors must be
// distinguishable from genuine failures.
func TestInjectedErrorIsTyped(t *testing.T) {
	inj := NewInjector(Plan{Seed: 1, Rate: 1, Kinds: []Kind{KindError}}, nil)
	eng := Wrap(core.Lockstep{}, inj)
	_, err := eng.XORRow(rle.Row{rle.Span(0, 3)}, rle.Row{rle.Span(2, 5)})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

// TestTelemetry: applied faults surface in the registry by kind.
func TestTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	inj := NewInjector(Plan{Seed: 2, Rate: 1, Kinds: []Kind{KindStuckEmpty}}, reg)
	eng := Wrap(core.Lockstep{}, inj)
	if _, err := eng.XORRow(rle.Row{rle.Span(0, 3)}, rle.Row{rle.Span(5, 9)}); err != nil {
		t.Fatal(err)
	}
	c := reg.Counter("sysrle_fault_injected_total", telemetry.L("kind", string(KindStuckEmpty)))
	if c.Value() != 1 {
		t.Errorf("counter = %d, want 1", c.Value())
	}
	var sb strings.Builder
	_ = reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `sysrle_fault_injected_total{kind="stuck-empty"} 1`) {
		t.Errorf("exposition missing fault counter:\n%s", sb.String())
	}
}
