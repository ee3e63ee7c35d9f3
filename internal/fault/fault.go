// Package fault generates fault-injection plans following the paper's
// methodology (§4): single bit flips, uniformly distributed over the
// dynamic instances of the eligible instructions of a run, flipping one
// uniformly chosen bit of the instruction's result. Everything is
// deterministic given a seed, which the experiment harness and the tests
// rely on. internal/campaign runs the plans.
package fault

import (
	"fmt"
	"math/rand"
	"sort"

	"etap/internal/sim"
)

// NewPlan schedules n single-bit flips uniformly over a dynamic eligible
// stream of length streamLen, with bit positions uniform over the full
// word. Ordinals are distinct; if n exceeds streamLen, the plan saturates
// at streamLen flips. A streamLen of zero (or an eligibility mask that
// marks nothing) is an error: there is nothing to inject into, and a
// silently empty plan would let a campaign report a 0% failure rate that
// measured nothing.
func NewPlan(eligible []bool, streamLen uint64, n int, seed int64) (*sim.FaultPlan, error) {
	return NewPlanBits(eligible, streamLen, n, seed, 0, 31)
}

// NewPlanBits is NewPlan with bit positions restricted to [loBit, hiBit]
// (inclusive), for sensitivity studies of where in the word an upset
// lands.
func NewPlanBits(eligible []bool, streamLen uint64, n int, seed int64, loBit, hiBit uint8) (*sim.FaultPlan, error) {
	return NewPlanBitsRand(rand.New(rand.NewSource(seed)), eligible, streamLen, n, loBit, hiBit)
}

// NewPlanBitsRand is NewPlanBits drawing from a caller-owned RNG stream
// instead of a one-shot seed. The campaign engine generates every plan of
// a shard from that shard's stream, so trial schedules depend only on
// (seed, shard, position-in-shard) and results are reproducible for any
// worker count.
func NewPlanBitsRand(rng *rand.Rand, eligible []bool, streamLen uint64, n int, loBit, hiBit uint8) (*sim.FaultPlan, error) {
	if streamLen == 0 {
		return nil, fmt.Errorf("fault: eligible stream is empty; nothing to inject into")
	}
	if len(eligible) > 0 && !AnyEligible(eligible) {
		return nil, fmt.Errorf("fault: eligibility mask marks no instructions; nothing to inject into")
	}
	if n < 0 {
		n = 0 // a negative budget schedules nothing, like n == 0
	}
	if hiBit > 31 {
		hiBit = 31
	}
	if loBit > hiBit {
		loBit = hiBit
	}
	if uint64(n) > streamLen {
		n = int(streamLen)
	}
	chosen := make(map[uint64]bool, n)
	inj := make([]sim.Injection, 0, n)
	for len(inj) < n {
		at := uint64(rng.Int63n(int64(streamLen))) + 1
		if chosen[at] {
			continue
		}
		chosen[at] = true
		bit := loBit + uint8(rng.Intn(int(hiBit-loBit)+1))
		inj = append(inj, sim.Injection{At: at, Bit: bit})
	}
	sort.Slice(inj, func(i, j int) bool { return inj[i].At < inj[j].At })
	return &sim.FaultPlan{Eligible: eligible, Injections: inj}, nil
}

// AnyEligible reports whether the mask marks at least one instruction.
// The plan constructors and the campaign engine share it to reject empty
// eligibility masks.
func AnyEligible(mask []bool) bool {
	for _, b := range mask {
		if b {
			return true
		}
	}
	return false
}
