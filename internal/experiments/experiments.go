// Package experiments contains one runner per table and figure of the
// paper's evaluation (Section III motivation studies and Section V
// results). Each runner builds the simulated systems, executes every
// workload under the schemes the figure compares, and returns a Table whose
// rows mirror the paper's plotted series. The cmd/secbench binary and the
// repository's benchmark suite are thin wrappers around this package.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"secmgpu/internal/config"
	"secmgpu/internal/machine"
	"secmgpu/internal/sweep"
	"secmgpu/internal/workload"
)

// Scheme is a named system configuration the paper plots.
type Scheme struct {
	// Name is the paper's label, e.g. "Private (OTP 4x)".
	Name string
	// Mutate specializes a default config for the scheme.
	Mutate func(*config.Config)
}

// Unsecure is the normalization baseline.
var Unsecure = Scheme{Name: "Unsecure", Mutate: func(c *config.Config) { c.Secure = false }}

// NamedScheme builds a Scheme for an OTP policy, multiplier, and batching
// flag using the paper's naming.
func NamedScheme(policy config.OTPScheme, mult int, batching bool) Scheme {
	name := fmt.Sprintf("%s (OTP %dx)", policy, mult)
	if batching {
		name = fmt.Sprintf("Ours [Dynamic+Batching] (OTP %dx)", mult)
	}
	return Scheme{
		Name: name,
		Mutate: func(c *config.Config) {
			c.Secure = true
			c.Scheme = policy
			c.OTPMultiplier = mult
			c.Batching = batching
		},
	}
}

// Standard schemes at the paper's default OTP 4x.
var (
	Private4x  = NamedScheme(config.OTPPrivate, 4, false)
	Private16x = NamedScheme(config.OTPPrivate, 16, false)
	Shared4x   = NamedScheme(config.OTPShared, 4, false)
	Cached4x   = NamedScheme(config.OTPCached, 4, false)
	Dynamic4x  = NamedScheme(config.OTPDynamic, 4, false)
	Ours4x     = NamedScheme(config.OTPDynamic, 4, true)
)

// Params controls experiment sizing.
type Params struct {
	// GPUs is the system size (4, 8, or 16 in the paper).
	GPUs int
	// Scale multiplies workload op counts; 1.0 is full evaluation size.
	Scale float64
	// Seed drives workload generation.
	Seed int64
	// Workloads restricts the run (nil = all 17 of Table IV).
	Workloads []string
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Deprecated: ignored; the simulator has one kernel.
	SimWorkers int
	// Engine executes the runner's sweeps. nil selects a process-wide
	// shared engine, so identical cells are deduplicated across every
	// figure run in the process (`secbench -exp all` simulates the
	// Unsecure baseline once, not sixteen times). Supply a dedicated
	// engine to isolate a run's cache and observer.
	Engine *sweep.Engine
}

// DefaultParams returns the paper's 4-GPU setup at the given scale.
func DefaultParams(scale float64) Params {
	return Params{GPUs: 4, Scale: scale, Seed: 1}
}

func (p Params) workloads() ([]workload.Spec, error) {
	if len(p.Workloads) == 0 {
		return workload.Registry(), nil
	}
	specs := make([]workload.Spec, 0, len(p.Workloads))
	for _, abbr := range p.Workloads {
		s, err := workload.ByAbbr(abbr)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// defaultEngine backs every Params whose Engine is nil; sharing it across
// runners is what deduplicates cells between figures.
var (
	defaultEngineOnce sync.Once
	defaultEngine     *sweep.Engine
)

func (p Params) engine() *sweep.Engine {
	if p.Engine != nil {
		return p.Engine
	}
	defaultEngineOnce.Do(func() { defaultEngine = sweep.New(0) })
	return defaultEngine
}

// baseConfig is the Table III system for these params.
func (p Params) baseConfig() config.Config {
	c := config.Default(p.GPUs)
	c.Seed = p.Seed
	c.Scale = p.Scale
	return c
}

// runCell executes a single simulation through the sweep engine, so even
// one-off runs (the Figure 13/14 traces) share the result cache.
func runCell(ctx context.Context, p Params, spec workload.Spec, cfg config.Config, opt machine.RunOptions) (*machine.Result, error) {
	res, err := p.engine().Run(ctx, []sweep.Cell{{Spec: spec, Cfg: cfg, Opt: opt, Label: spec.Abbr}}, 1)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// runGrid sweeps every (workload x scheme) cell through the engine and
// returns results indexed [workload][scheme].
func runGrid(ctx context.Context, p Params, schemes []Scheme, opt machine.RunOptions) ([][]*machine.Result, []workload.Spec, error) {
	specs, err := p.workloads()
	if err != nil {
		return nil, nil, err
	}
	cells := make([]sweep.Cell, 0, len(specs)*len(schemes))
	for _, spec := range specs {
		for _, sch := range schemes {
			cfg := p.baseConfig()
			sch.Mutate(&cfg)
			cells = append(cells, sweep.Cell{
				Spec: spec, Cfg: cfg, Opt: opt,
				Label: spec.Abbr + " under " + sch.Name,
			})
		}
	}
	results, err := p.engine().Run(ctx, cells, p.Parallelism)
	if err != nil {
		return nil, nil, err
	}

	grid := make([][]*machine.Result, len(specs))
	for wi := range specs {
		grid[wi] = make([]*machine.Result, len(schemes))
		for si := range schemes {
			grid[wi][si] = results[wi*len(schemes)+si]
		}
	}
	return grid, specs, nil
}

// Table is a figure/table reproduction: per-workload rows plus a mean row,
// matching how the paper plots per-benchmark bars with an "avg" group.
type Table struct {
	// ID is the paper artifact ("Figure 21"), Title its caption.
	ID    string
	Title string
	// RowLabel names the row dimension (usually "workload").
	RowLabel string
	Columns  []string
	Rows     []Row
	// Note carries methodology remarks.
	Note string
}

// Row is one labelled series of values.
type Row struct {
	Label  string
	Values []float64
}

// MeanRow appends an arithmetic-mean row across all current rows.
func (t *Table) MeanRow() Row {
	if len(t.Rows) == 0 {
		return Row{Label: "avg"}
	}
	vals := make([]float64, len(t.Columns))
	for c := range t.Columns {
		var sum float64
		var n int
		for _, r := range t.Rows {
			if c < len(r.Values) && !math.IsNaN(r.Values[c]) {
				sum += r.Values[c]
				n++
			}
		}
		if n > 0 {
			vals[c] = sum / float64(n)
		}
	}
	return Row{Label: "avg", Values: vals}
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
	width := 8
	fmt.Fprintf(&b, "%-10s", t.RowLabel)
	for _, c := range t.Columns {
		if len(c)+2 > width {
			width = len(c) + 2
		}
	}
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", width, c)
	}
	b.WriteByte('\n')
	writeRow := func(r Row) {
		fmt.Fprintf(&b, "%-10s", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "%*.3f", width, v)
		}
		b.WriteByte('\n')
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	writeRow(t.MeanRow())
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

// Value looks a cell up by row label and column name.
func (t *Table) Value(row, col string) (float64, bool) {
	ci := -1
	for i, c := range t.Columns {
		if c == col {
			ci = i
			break
		}
	}
	if ci < 0 {
		return 0, false
	}
	if row == "avg" {
		m := t.MeanRow()
		return m.Values[ci], true
	}
	for _, r := range t.Rows {
		if r.Label == row && ci < len(r.Values) {
			return r.Values[ci], true
		}
	}
	return 0, false
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", t.RowLabel)
	for _, c := range t.Columns {
		fmt.Fprintf(&b, ",%s", c)
	}
	b.WriteByte('\n')
	rows := append(append([]Row{}, t.Rows...), t.MeanRow())
	for _, r := range rows {
		fmt.Fprintf(&b, "%s", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, ",%.6f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// sortRows orders rows by label for stable output.
func sortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Label < rows[j].Label })
}
