package circuit

import (
	"fmt"
	"math"

	"cirstag/internal/graph"
	"cirstag/internal/mat"
)

// PinDir distinguishes input pins from output pins.
type PinDir int

const (
	// DirIn marks a pin that receives a signal.
	DirIn PinDir = iota
	// DirOut marks a pin that drives a net.
	DirOut
)

// Pin is a connection point of a cell. Pins are the nodes of the timing
// graph.
type Pin struct {
	ID   int
	Cell int     // owning cell id
	Dir  PinDir  //
	Cap  float64 // input capacitance (fF); 0 for output pins
	Net  int     // connected net id, -1 if dangling
}

// Cell is one instance of a library gate (or a port pseudo-cell).
type Cell struct {
	ID     int
	Type   GateType
	InPins []int // pin ids, ordered
	OutPin int   // pin id, -1 for PortOut cells
}

// Net connects one driver (output pin) to its sinks (input pins).
type Net struct {
	ID      int
	Driver  int   // output pin id
	Sinks   []int // input pin ids
	WireCap float64
}

// Netlist is a full gate-level design.
type Netlist struct {
	Name  string
	Cells []Cell
	Pins  []Pin
	Nets  []Net
	// PrimaryInputs / PrimaryOutputs are cell ids of the port pseudo-cells.
	PrimaryInputs  []int
	PrimaryOutputs []int
	// CellSize holds per-cell drive-strength multipliers for gate sizing
	// (nil means every cell is at unit size). Upsizing a cell divides its
	// arc delay slope by the factor; callers should scale its input pin
	// capacitances alongside (see Resize).
	CellSize []float64
}

// SizeOf returns the drive-strength multiplier of cell c (1 by default).
func (nl *Netlist) SizeOf(c int) float64 {
	if nl.CellSize == nil || c >= len(nl.CellSize) || nl.CellSize[c] <= 0 {
		return 1
	}
	return nl.CellSize[c]
}

// Resize returns a clone with cell c scaled by factor: its delay slope
// shrinks (Drive/size) while its input pins present proportionally more
// capacitance to their drivers — the classic gate-sizing trade-off the
// paper's introduction motivates. factor must be positive; port pseudo-cells
// cannot be resized.
func (nl *Netlist) Resize(c int, factor float64) *Netlist {
	if factor <= 0 {
		panic(fmt.Sprintf("circuit: Resize factor %v must be positive", factor))
	}
	if nl.Cells[c].Type == PortIn || nl.Cells[c].Type == PortOut {
		panic(fmt.Sprintf("circuit: cannot resize port cell %d", c))
	}
	out := nl.Clone()
	if out.CellSize == nil {
		out.CellSize = make([]float64, len(out.Cells))
		for i := range out.CellSize {
			out.CellSize[i] = 1
		}
	}
	ratio := factor / nl.SizeOf(c)
	out.CellSize[c] = factor
	for _, p := range out.Cells[c].InPins {
		out.Pins[p].Cap *= ratio
	}
	return out
}

// NumPins returns the number of pins (the timing-graph node count).
func (nl *Netlist) NumPins() int { return len(nl.Pins) }

// NumGates returns the number of non-port cells.
func (nl *Netlist) NumGates() int {
	return len(nl.Cells) - len(nl.PrimaryInputs) - len(nl.PrimaryOutputs)
}

// Validate checks structural invariants: pin/cell/net cross-references,
// library pin counts, single-driver nets, finite capacitances, port-cell
// shapes, and acyclicity of the cell graph. Every index it accepts is safe to
// use unchecked downstream, so it must stay exhaustive: a netlist that passes
// Validate never panics the pipeline.
func (nl *Netlist) Validate() error {
	for _, p := range nl.Pins {
		if p.Cell < 0 || p.Cell >= len(nl.Cells) {
			return fmt.Errorf("circuit: pin %d references cell %d out of range", p.ID, p.Cell)
		}
		if p.Net < -1 || p.Net >= len(nl.Nets) {
			return fmt.Errorf("circuit: pin %d references net %d out of range", p.ID, p.Net)
		}
		if math.IsNaN(p.Cap) || math.IsInf(p.Cap, 0) || p.Cap < 0 {
			return fmt.Errorf("circuit: pin %d cap %v must be finite and non-negative", p.ID, p.Cap)
		}
	}
	for _, c := range nl.Cells {
		if c.Type < 0 || int(c.Type) >= NumGateTypes {
			return fmt.Errorf("circuit: cell %d has unknown gate type %d", c.ID, c.Type)
		}
		spec := Library[c.Type]
		if c.Type != PortIn && len(c.InPins) != spec.Inputs {
			return fmt.Errorf("circuit: cell %d (%v) has %d inputs, library wants %d", c.ID, c.Type, len(c.InPins), spec.Inputs)
		}
		if c.Type == PortOut {
			if c.OutPin != -1 {
				return fmt.Errorf("circuit: output port %d must not drive", c.ID)
			}
		} else if c.OutPin < 0 || c.OutPin >= len(nl.Pins) {
			return fmt.Errorf("circuit: cell %d output pin %d out of range", c.ID, c.OutPin)
		}
		for _, p := range c.InPins {
			if p < 0 || p >= len(nl.Pins) {
				return fmt.Errorf("circuit: cell %d input pin %d out of range", c.ID, p)
			}
			if nl.Pins[p].Dir != DirIn {
				return fmt.Errorf("circuit: cell %d input pin %d has wrong direction", c.ID, p)
			}
			if nl.Pins[p].Cell != c.ID {
				return fmt.Errorf("circuit: pin %d ownership mismatch", p)
			}
		}
	}
	for _, n := range nl.Nets {
		if n.Driver < 0 || n.Driver >= len(nl.Pins) {
			return fmt.Errorf("circuit: net %d driver %d out of range", n.ID, n.Driver)
		}
		if nl.Pins[n.Driver].Dir != DirOut {
			return fmt.Errorf("circuit: net %d driver %d is not an output pin", n.ID, n.Driver)
		}
		if math.IsNaN(n.WireCap) || math.IsInf(n.WireCap, 0) || n.WireCap < 0 {
			return fmt.Errorf("circuit: net %d wire cap %v must be finite and non-negative", n.ID, n.WireCap)
		}
		if len(n.Sinks) == 0 {
			return fmt.Errorf("circuit: net %d has no sinks", n.ID)
		}
		for _, s := range n.Sinks {
			if s < 0 || s >= len(nl.Pins) {
				return fmt.Errorf("circuit: net %d sink %d out of range", n.ID, s)
			}
			if nl.Pins[s].Dir != DirIn {
				return fmt.Errorf("circuit: net %d sink %d is not an input pin", n.ID, s)
			}
			if nl.Pins[s].Net != n.ID {
				return fmt.Errorf("circuit: sink pin %d not linked to net %d", s, n.ID)
			}
		}
	}
	for _, c := range nl.PrimaryInputs {
		if c < 0 || c >= len(nl.Cells) {
			return fmt.Errorf("circuit: primary input cell %d out of range", c)
		}
		if nl.Cells[c].Type != PortIn {
			return fmt.Errorf("circuit: primary input cell %d is not an input port", c)
		}
	}
	for _, c := range nl.PrimaryOutputs {
		if c < 0 || c >= len(nl.Cells) {
			return fmt.Errorf("circuit: primary output cell %d out of range", c)
		}
		// PrimaryOutputPins reads InPins[0] unchecked; the library shape check
		// above guarantees it exists once the type is confirmed here.
		if nl.Cells[c].Type != PortOut {
			return fmt.Errorf("circuit: primary output cell %d is not an output port", c)
		}
	}
	for i, s := range nl.CellSize {
		if !(s > 0) || math.IsInf(s, 0) {
			return fmt.Errorf("circuit: cell %d size %v must be positive and finite", i, s)
		}
	}
	if _, err := nl.TopologicalPins(); err != nil {
		return err
	}
	return nil
}

// timingArcs returns the directed pin-level edges: net arcs (driver → sink)
// and cell arcs (input pin → output pin of the same cell).
func (nl *Netlist) timingArcs() [][2]int {
	arcs := make([][2]int, 0, 2*len(nl.Pins))
	for _, n := range nl.Nets {
		for _, s := range n.Sinks {
			arcs = append(arcs, [2]int{n.Driver, s})
		}
	}
	for _, c := range nl.Cells {
		if c.Type == PortIn || c.Type == PortOut || c.OutPin < 0 {
			continue
		}
		for _, in := range c.InPins {
			arcs = append(arcs, [2]int{in, c.OutPin})
		}
	}
	return arcs
}

// TopologicalPins returns the pin ids in a topological order of the directed
// timing graph, or an error if the design has a combinational cycle.
func (nl *Netlist) TopologicalPins() ([]int, error) {
	n := len(nl.Pins)
	adj := make([][]int, n)
	indeg := make([]int, n)
	for _, a := range nl.timingArcs() {
		adj[a[0]] = append(adj[a[0]], a[1])
		indeg[a[1]]++
	}
	queue := make([]int, 0, n)
	for p := 0; p < n; p++ {
		if indeg[p] == 0 {
			queue = append(queue, p)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range adj[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("circuit: combinational cycle detected (%d of %d pins ordered)", len(order), n)
	}
	return order, nil
}

// PinGraph returns the undirected pin-level graph used as CirSTAG's input
// graph: one node per pin, an edge for every net connection and cell arc,
// all with unit weight.
func (nl *Netlist) PinGraph() *graph.Graph {
	g := graph.New(len(nl.Pins))
	for _, a := range nl.timingArcs() {
		if !g.HasEdge(a[0], a[1]) {
			g.AddEdge(a[0], a[1], 1)
		}
	}
	return g
}

// PinDepths returns each pin's depth (longest hop distance from a primary
// input pin in the directed timing graph).
func (nl *Netlist) PinDepths() []int {
	order, err := nl.TopologicalPins()
	if err != nil {
		// Validate() rejects cyclic designs; reaching here means the caller
		// skipped validation, so fail loudly.
		panic(err)
	}
	n := len(nl.Pins)
	adj := make([][]int, n)
	for _, a := range nl.timingArcs() {
		adj[a[0]] = append(adj[a[0]], a[1])
	}
	depth := make([]int, n)
	for _, u := range order {
		for _, v := range adj[u] {
			if depth[u]+1 > depth[v] {
				depth[v] = depth[u] + 1
			}
		}
	}
	return depth
}

// LoadCap returns the capacitive load seen by an output pin: the wire
// capacitance of its net plus the input capacitance of every sink pin.
// Dangling output pins see zero load.
func (nl *Netlist) LoadCap(outPin int) float64 {
	netID := nl.Pins[outPin].Net
	if netID < 0 {
		return 0
	}
	net := nl.Nets[netID]
	load := net.WireCap
	for _, s := range net.Sinks {
		load += nl.Pins[s].Cap
	}
	return load
}

// FaninCount returns, per pin, the number of incoming timing arcs.
func (nl *Netlist) FaninCount() []int {
	c := make([]int, len(nl.Pins))
	for _, a := range nl.timingArcs() {
		c[a[1]]++
	}
	return c
}

// FanoutCount returns, per pin, the number of outgoing timing arcs.
func (nl *Netlist) FanoutCount() []int {
	c := make([]int, len(nl.Pins))
	for _, a := range nl.timingArcs() {
		c[a[0]]++
	}
	return c
}

// PrimaryOutputPins returns the input pins of the output ports (where
// arrival times are reported).
func (nl *Netlist) PrimaryOutputPins() []int {
	out := make([]int, 0, len(nl.PrimaryOutputs))
	for _, c := range nl.PrimaryOutputs {
		out = append(out, nl.Cells[c].InPins[0])
	}
	return out
}

// PrimaryInputPins returns the output pins of the input ports.
func (nl *Netlist) PrimaryInputPins() []int {
	out := make([]int, 0, len(nl.PrimaryInputs))
	for _, c := range nl.PrimaryInputs {
		out = append(out, nl.Cells[c].OutPin)
	}
	return out
}

// Features builds the per-pin feature matrix consumed by the timing GNN:
// [cap, loadCap, fanin, fanout, depth, isPI, isPO, isOutPin, gate one-hot…].
func (nl *Netlist) Features() *mat.Dense {
	n := len(nl.Pins)
	depths := nl.PinDepths()
	fanin := nl.FaninCount()
	fanout := nl.FanoutCount()
	maxDepth := 1
	for _, d := range depths {
		if d > maxDepth {
			maxDepth = d
		}
	}
	isPO := make([]bool, n)
	for _, p := range nl.PrimaryOutputPins() {
		isPO[p] = true
	}
	isPI := make([]bool, n)
	for _, p := range nl.PrimaryInputPins() {
		isPI[p] = true
	}
	cols := 8 + NumGateTypes
	f := mat.NewDense(n, cols)
	for p := 0; p < n; p++ {
		pin := nl.Pins[p]
		f.Set(p, 0, pin.Cap)
		if pin.Dir == DirOut {
			f.Set(p, 1, nl.LoadCap(p))
		}
		f.Set(p, 2, float64(fanin[p]))
		f.Set(p, 3, float64(fanout[p]))
		f.Set(p, 4, float64(depths[p])/float64(maxDepth))
		if isPI[p] {
			f.Set(p, 5, 1)
		}
		if isPO[p] {
			f.Set(p, 6, 1)
		}
		if pin.Dir == DirOut {
			f.Set(p, 7, 1)
		}
		f.Set(p, 8+int(nl.Cells[pin.Cell].Type), 1)
	}
	return f
}

// Clone returns a deep copy of the netlist (pin capacitances can then be
// perturbed independently).
func (nl *Netlist) Clone() *Netlist {
	out := &Netlist{Name: nl.Name}
	out.Cells = make([]Cell, len(nl.Cells))
	for i, c := range nl.Cells {
		cc := c
		cc.InPins = append([]int(nil), c.InPins...)
		out.Cells[i] = cc
	}
	out.Pins = append([]Pin(nil), nl.Pins...)
	out.Nets = make([]Net, len(nl.Nets))
	for i, n := range nl.Nets {
		nn := n
		nn.Sinks = append([]int(nil), n.Sinks...)
		out.Nets[i] = nn
	}
	out.PrimaryInputs = append([]int(nil), nl.PrimaryInputs...)
	out.PrimaryOutputs = append([]int(nil), nl.PrimaryOutputs...)
	out.CellSize = append([]float64(nil), nl.CellSize...)
	return out
}
