package sta

import (
	"math"
	"math/rand"
	"testing"

	"cirstag/internal/circuit"
	"cirstag/internal/mat"
)

// chain builds PI -> INV -> INV -> ... -> PO with n inverters.
func chain(n int) *circuit.Netlist {
	nl := &circuit.Netlist{Name: "chain"}
	addCell := func(typ circuit.GateType) int {
		id := len(nl.Cells)
		nl.Cells = append(nl.Cells, circuit.Cell{ID: id, Type: typ, OutPin: -1})
		return id
	}
	addPin := func(cell int, dir circuit.PinDir, cap float64) int {
		id := len(nl.Pins)
		nl.Pins = append(nl.Pins, circuit.Pin{ID: id, Cell: cell, Dir: dir, Cap: cap, Net: -1})
		return id
	}
	addNet := func(driver int, sinks ...int) {
		id := len(nl.Nets)
		nl.Nets = append(nl.Nets, circuit.Net{ID: id, Driver: driver, Sinks: sinks})
		nl.Pins[driver].Net = id
		for _, s := range sinks {
			nl.Pins[s].Net = id
		}
	}
	pi := addCell(circuit.PortIn)
	prev := addPin(pi, circuit.DirOut, 0)
	nl.Cells[pi].OutPin = prev
	nl.PrimaryInputs = []int{pi}
	for i := 0; i < n; i++ {
		inv := addCell(circuit.Inv)
		in := addPin(inv, circuit.DirIn, circuit.Library[circuit.Inv].InputCap)
		out := addPin(inv, circuit.DirOut, 0)
		nl.Cells[inv].InPins = []int{in}
		nl.Cells[inv].OutPin = out
		addNet(prev, in)
		prev = out
	}
	po := addCell(circuit.PortOut)
	poIn := addPin(po, circuit.DirIn, circuit.Library[circuit.PortOut].InputCap)
	nl.Cells[po].InPins = []int{poIn}
	nl.PrimaryOutputs = []int{po}
	addNet(prev, poIn)
	return nl
}

func TestChainDelayAnalytic(t *testing.T) {
	n := 5
	nl := chain(n)
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(nl)
	if err != nil {
		t.Fatal(err)
	}
	invSpec := circuit.Library[circuit.Inv]
	portSpec := circuit.Library[circuit.PortIn]
	poCap := circuit.Library[circuit.PortOut].InputCap
	// PI drive into first inverter input.
	want := portSpec.Intrinsic + portSpec.Drive*invSpec.InputCap
	// n-1 inverters driving inverter loads, last driving PO load.
	for i := 0; i < n; i++ {
		load := invSpec.InputCap
		if i == n-1 {
			load = poCap
		}
		want += invSpec.Intrinsic + invSpec.Drive*load
	}
	if math.Abs(res.MaxDelay-want) > 1e-9 {
		t.Fatalf("chain delay %v, want %v", res.MaxDelay, want)
	}
}

func TestArrivalMonotoneAlongPath(t *testing.T) {
	nl := chain(8)
	res, err := Analyze(nl)
	if err != nil {
		t.Fatal(err)
	}
	order, _ := nl.TopologicalPins()
	pos := make([]int, nl.NumPins())
	for i, p := range order {
		pos[p] = i
	}
	// Arrival along any net/cell arc never decreases.
	for _, net := range nl.Nets {
		for _, s := range net.Sinks {
			if res.Arrival[s] < res.Arrival[net.Driver]-1e-12 {
				t.Fatal("arrival decreased along a net arc")
			}
		}
	}
}

func TestIncreasedLoadIncreasesDelay(t *testing.T) {
	// STA monotonicity: scaling any input pin capacitance up can only
	// increase arrival times.
	spec := circuit.StandardBenchmarks()[0]
	nl := circuit.Generate(spec, rand.New(rand.NewSource(11)))
	base, err := Analyze(nl)
	if err != nil {
		t.Fatal(err)
	}
	pert := nl.Clone()
	rng := rand.New(rand.NewSource(12))
	changed := 0
	for i := range pert.Pins {
		if pert.Pins[i].Dir == circuit.DirIn && rng.Float64() < 0.1 {
			pert.Pins[i].Cap *= 5
			changed++
		}
	}
	if changed == 0 {
		t.Skip("no pins perturbed")
	}
	after, err := Analyze(pert)
	if err != nil {
		t.Fatal(err)
	}
	for p := range base.Arrival {
		if after.Arrival[p] < base.Arrival[p]-1e-9 {
			t.Fatalf("arrival decreased at pin %d after load increase", p)
		}
	}
	if after.MaxDelay <= base.MaxDelay {
		t.Fatal("critical delay should increase")
	}
}

func TestPerturbationLocality(t *testing.T) {
	// Perturbing a pin near the outputs affects fewer POs than one near the
	// inputs (its fanout cone is smaller).
	nl := chain(6)
	base, _ := Analyze(nl)
	// Perturb the last inverter's input pin.
	lastInvIn := nl.Cells[6].InPins[0]
	p1 := nl.Clone()
	p1.Pins[lastInvIn].Cap *= 10
	r1, _ := Analyze(p1)
	// Perturb the first inverter's input pin.
	firstInvIn := nl.Cells[1].InPins[0]
	p2 := nl.Clone()
	p2.Pins[firstInvIn].Cap *= 10
	r2, _ := Analyze(p2)
	// Both increase PO delay; the chain has one PO so compare increase size:
	// both drive identical loads, so the increases are equal here — just
	// check both are positive and arrivals upstream of the perturbed pin are
	// unchanged.
	if r1.MaxDelay <= base.MaxDelay || r2.MaxDelay <= base.MaxDelay {
		t.Fatal("perturbation did not increase delay")
	}
	// Upstream arrivals unaffected by downstream load change.
	for p := 0; p < nl.NumPins(); p++ {
		if base.Arrival[p] != 0 && p < lastInvIn-2 {
			if math.Abs(r1.Arrival[p]-base.Arrival[p]) > 1e-9 {
				t.Fatalf("upstream pin %d affected by downstream perturbation", p)
			}
		}
	}
}

func TestRelativeChange(t *testing.T) {
	base := mat.Vec{100, 200, 0}
	pert := mat.Vec{110, 180, 5}
	mean, max := RelativeChange(base, pert)
	// Changes: 0.1, 0.1; zero-baseline output skipped.
	if math.Abs(mean-0.1) > 1e-12 || math.Abs(max-0.1) > 1e-12 {
		t.Fatalf("mean=%v max=%v", mean, max)
	}
	m2, x2 := RelativeChange(mat.Vec{}, mat.Vec{})
	if m2 != 0 || x2 != 0 {
		t.Fatal("empty inputs should give zeros")
	}
}

func TestAnalyzeOnStandardBenchmark(t *testing.T) {
	nl := circuit.Generate(circuit.StandardBenchmarks()[1], rand.New(rand.NewSource(13)))
	res, err := Analyze(nl)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxDelay <= 0 || res.CriticalPO < 0 {
		t.Fatal("degenerate STA result")
	}
	po := res.POArrivals(nl)
	if len(po) != len(nl.PrimaryOutputs) {
		t.Fatal("PO arrival count wrong")
	}
	for _, a := range po {
		if a <= 0 {
			t.Fatal("PO with non-positive arrival")
		}
		if a > res.MaxDelay+1e-9 {
			t.Fatal("PO arrival exceeds MaxDelay")
		}
	}
}

func TestAnalyzeRejectsCycle(t *testing.T) {
	nl := &circuit.Netlist{Name: "loop"}
	nl.Cells = []circuit.Cell{
		{ID: 0, Type: circuit.Inv, InPins: []int{0}, OutPin: 1},
		{ID: 1, Type: circuit.Inv, InPins: []int{2}, OutPin: 3},
	}
	nl.Pins = []circuit.Pin{
		{ID: 0, Cell: 0, Dir: circuit.DirIn, Cap: 1, Net: 1},
		{ID: 1, Cell: 0, Dir: circuit.DirOut, Net: 0},
		{ID: 2, Cell: 1, Dir: circuit.DirIn, Cap: 1, Net: 0},
		{ID: 3, Cell: 1, Dir: circuit.DirOut, Net: 1},
	}
	nl.Nets = []circuit.Net{
		{ID: 0, Driver: 1, Sinks: []int{2}},
		{ID: 1, Driver: 3, Sinks: []int{0}},
	}
	if _, err := Analyze(nl); err == nil {
		t.Fatal("cycle should error")
	}
}

// criticalCells walks back from the critical primary output along the
// arrivals Analyze computed and returns the gate cells on that path, output
// side first: an input pin's arrival is its net driver's, and a cell
// output's comes from its latest input pin (all of a cell's input arcs have
// the same delay).
func criticalCells(nl *circuit.Netlist, res *Result) []int {
	var cells []int
	for p := res.CriticalPO; p >= 0; {
		pin := nl.Pins[p]
		if pin.Dir == circuit.DirIn {
			if pin.Net < 0 {
				break
			}
			p = nl.Nets[pin.Net].Driver
			continue
		}
		c := nl.Cells[pin.Cell]
		if c.Type == circuit.PortIn {
			break
		}
		cells = append(cells, c.ID)
		p = -1
		for _, in := range c.InPins {
			if p < 0 || res.Arrival[in] > res.Arrival[p] {
				p = in
			}
		}
	}
	return cells
}

func TestUpsizingCriticalCellReducesDelay(t *testing.T) {
	nl := circuit.Generate(circuit.StandardBenchmarks()[0], rand.New(rand.NewSource(36)))
	base, err := Analyze(nl)
	if err != nil {
		t.Fatal(err)
	}
	// Upsize the gate cells along the critical path by 2x.
	path := criticalCells(nl, base)
	if len(path) == 0 {
		t.Fatal("critical path holds no gate cell")
	}
	sized := nl
	for _, c := range path {
		sized = sized.Resize(c, 2)
	}
	after, err := Analyze(sized)
	if err != nil {
		t.Fatal(err)
	}
	if after.MaxDelay >= base.MaxDelay {
		t.Fatalf("upsizing critical path did not help: %v -> %v", base.MaxDelay, after.MaxDelay)
	}
}

func TestUpsizingOffPathCellHurtsOrNeutral(t *testing.T) {
	// Upsizing a cell off the critical path speeds up only paths that were
	// not critical and adds load to its drivers: max delay must not improve.
	nl := circuit.Generate(circuit.StandardBenchmarks()[0], rand.New(rand.NewSource(37)))
	base, err := Analyze(nl)
	if err != nil {
		t.Fatal(err)
	}
	onPath := map[int]bool{}
	for _, c := range criticalCells(nl, base) {
		onPath[c] = true
	}
	checked := 0
	for _, c := range nl.Cells {
		if c.Type == circuit.PortIn || c.Type == circuit.PortOut || c.OutPin < 0 || onPath[c.ID] {
			continue
		}
		after, err := Analyze(nl.Resize(c.ID, 4))
		if err != nil {
			t.Fatal(err)
		}
		if after.MaxDelay < base.MaxDelay-1e-9 {
			t.Fatalf("upsizing off-path cell %d improved the critical delay: %v -> %v", c.ID, base.MaxDelay, after.MaxDelay)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no off-path gate cell")
	}
}
