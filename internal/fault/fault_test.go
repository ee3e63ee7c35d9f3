package fault

import (
	"testing"
	"testing/quick"
)

func TestPlanProperties(t *testing.T) {
	f := func(seedRaw int64, nRaw uint8) bool {
		streamLen := uint64(1000)
		n := int(nRaw%100) + 1
		plan, err := NewPlan(nil, streamLen, n, seedRaw)
		if err != nil || len(plan.Injections) != n {
			return false
		}
		seen := map[uint64]bool{}
		prev := uint64(0)
		for _, inj := range plan.Injections {
			if inj.At < 1 || inj.At > streamLen {
				return false // outside the dynamic stream
			}
			if inj.At < prev {
				return false // not sorted
			}
			if seen[inj.At] {
				return false // duplicate ordinal
			}
			seen[inj.At] = true
			prev = inj.At
			if inj.Bit > 31 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanSaturatesAtStreamLength(t *testing.T) {
	plan, err := NewPlan(nil, 5, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Injections) != 5 {
		t.Fatalf("plan has %d injections, want 5 (saturated)", len(plan.Injections))
	}
}

func TestPlanRejectsEmptyStream(t *testing.T) {
	if _, err := NewPlan(nil, 0, 5, 1); err == nil {
		t.Fatalf("NewPlan accepted a zero-length eligible stream")
	}
	if _, err := NewPlan(nil, 0, 0, 1); err == nil {
		t.Fatalf("NewPlan accepted a zero-length eligible stream with zero errors")
	}
	if _, err := NewPlanBits(make([]bool, 16), 100, 5, 1, 0, 31); err == nil {
		t.Fatalf("NewPlanBits accepted an all-false eligibility mask")
	}
	// A negative error budget schedules nothing, like n == 0 — callers
	// like Engine.Run(-1, seed) get a clean run, not a panic.
	plan, err := NewPlan(nil, 100, -1, 1)
	if err != nil || len(plan.Injections) != 0 {
		t.Fatalf("NewPlan(-1 errors) = %d injections, err %v; want empty plan", len(plan.Injections), err)
	}
}

func TestPlanDeterministicBySeed(t *testing.T) {
	a, err := NewPlan(nil, 10000, 20, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlan(nil, 10000, 20, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Injections) != len(b.Injections) {
		t.Fatalf("lengths differ")
	}
	for i := range a.Injections {
		if a.Injections[i] != b.Injections[i] {
			t.Fatalf("injection %d differs: %v vs %v", i, a.Injections[i], b.Injections[i])
		}
	}
	c, err := NewPlan(nil, 10000, 20, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Injections {
		if a.Injections[i] != c.Injections[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("different seeds produced identical plans")
	}
}

func TestPlanBitsRestrictsLane(t *testing.T) {
	for _, lane := range [][2]uint8{{0, 7}, {8, 15}, {24, 31}, {5, 5}} {
		plan, err := NewPlanBits(nil, 10000, 50, 9, lane[0], lane[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, inj := range plan.Injections {
			if inj.Bit < lane[0] || inj.Bit > lane[1] {
				t.Fatalf("lane %v: bit %d outside range", lane, inj.Bit)
			}
		}
	}
	// Degenerate bit lanes are clamped, not rejected.
	plan, err := NewPlanBits(nil, 100, 5, 1, 40, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, inj := range plan.Injections {
		if inj.Bit > 31 {
			t.Fatalf("bit %d > 31 after clamping", inj.Bit)
		}
	}
}
