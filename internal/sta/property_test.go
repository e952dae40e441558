package sta

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cirstag/internal/circuit"
)

func smallDesign(seed int64) *circuit.Netlist {
	rng := rand.New(rand.NewSource(seed))
	spec := circuit.Spec{
		Name:   "prop",
		Inputs: 3 + rng.Intn(8), Outputs: 2 + rng.Intn(4),
		Layers: 2 + rng.Intn(5), Width: 4 + rng.Intn(12),
		LocalBias: 0.4 + rng.Float64()*0.5,
		WireCap:   rng.Float64() * 2,
	}
	return circuit.Generate(spec, rng)
}

// Property: STA arrival times are monotone in every pin capacitance —
// scaling any subset of input-pin caps up never decreases any arrival.
func TestQuickSTAMonotonicity(t *testing.T) {
	f := func(seed int64, pick uint8, scaleBits uint8) bool {
		nl := smallDesign(seed)
		base, err := Analyze(nl)
		if err != nil {
			return false
		}
		pert := nl.Clone()
		rng := rand.New(rand.NewSource(int64(pick)))
		scale := 1 + float64(scaleBits%16) // 1..16x
		for i := range pert.Pins {
			if pert.Pins[i].Dir == circuit.DirIn && rng.Float64() < 0.3 {
				pert.Pins[i].Cap *= scale
			}
		}
		after, err := Analyze(pert)
		if err != nil {
			return false
		}
		for p := range base.Arrival {
			if after.Arrival[p] < base.Arrival[p]-1e-9 {
				return false
			}
		}
		return after.MaxDelay >= base.MaxDelay-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every generated design is acyclic and has positive critical
// delay.
func TestQuickGeneratedDesignsWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		nl := smallDesign(seed)
		if err := nl.Validate(); err != nil {
			return false
		}
		res, err := Analyze(nl)
		if err != nil {
			return false
		}
		return res.MaxDelay > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: arrival at any pin never exceeds the critical delay, and the
// critical PO attains it.
func TestQuickCriticalDelayIsMaximum(t *testing.T) {
	f := func(seed int64) bool {
		nl := smallDesign(seed)
		res, err := Analyze(nl)
		if err != nil {
			return false
		}
		for _, p := range nl.PrimaryOutputPins() {
			if res.Arrival[p] > res.MaxDelay+1e-9 {
				return false
			}
		}
		return res.CriticalPO >= 0 && res.Arrival[res.CriticalPO] == res.MaxDelay
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
