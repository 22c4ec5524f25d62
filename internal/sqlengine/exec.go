// Package sqlengine is the SQL baseline of the paper's evaluation: an
// in-memory relational query engine (selection, projection, hash equi-join,
// anti-join for NOT EXISTS, union, difference) plus a compiler from the
// first-order constraint language to algebra plans whose result rows are
// the constraint's violating variable bindings. This is the "express the
// violating tuples as a SELECT" approach of the introduction, against which
// the BDD logical indices are measured.
//
// All operators use set semantics, matching the BDD evaluator.
package sqlengine

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/relation"
)

// Rows is a materialized result: named columns over value domains with
// dictionary-encoded data.
type Rows struct {
	Vars []string
	Doms []*relation.Domain
	Data [][]int32
}

// Len returns the number of rows.
func (r *Rows) Len() int { return len(r.Data) }

// Col returns the position of the named column, or -1.
func (r *Rows) Col(name string) int {
	for i, v := range r.Vars {
		if v == name {
			return i
		}
	}
	return -1
}

// Decode renders row i as attribute values.
func (r *Rows) Decode(i int) []string {
	out := make([]string, len(r.Vars))
	for c := range r.Vars {
		out[c] = r.Doms[c].Value(r.Data[i][c])
	}
	return out
}

// Plan is an executable relational-algebra node.
type Plan interface {
	// Run materializes the plan's result.
	Run() (*Rows, error)
	// Vars lists the output column names.
	Vars() []string
	// SQL renders an explanatory SQL-like form of the plan.
	SQL() string
}

// MaxRows caps the size of any intermediate result. Safe-range translation
// of arbitrary first-order constraints can require active-domain products;
// when one would materialize more than MaxRows rows the engine reports
// ErrTooLarge instead of exhausting memory.
const MaxRows = 20_000_000

// ErrTooLarge reports an intermediate result past MaxRows.
var ErrTooLarge = errors.New("sqlengine: intermediate result exceeds the row cap")

func rowKey(row []int32, cols []int) string {
	return string(relation.AppendKey(nil, row, cols))
}

func allCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func dedupe(r *Rows) *Rows {
	seen := make(map[string]bool, len(r.Data))
	cols := allCols(len(r.Vars))
	out := r.Data[:0:0]
	for _, row := range r.Data {
		k := rowKey(row, cols)
		if !seen[k] {
			seen[k] = true
			out = append(out, row)
		}
	}
	r.Data = out
	return r
}

// ConstFilter restricts a scanned column to one code.
type ConstFilter struct {
	Col  int
	Code int32
}

// Scan reads a table, applies constant and duplicate-variable filters, and
// projects columns onto variables (set semantics).
type Scan struct {
	Table *relation.Table
	// Consts are constant equality filters on table columns.
	Consts []ConstFilter
	// EqCols are pairs of table columns that must be equal (a variable
	// repeated inside one predicate).
	EqCols [][2]int
	// OutCols and OutVars are parallel: column OutCols[i] is exported as
	// variable OutVars[i].
	OutCols []int
	OutVars []string
}

// Vars implements Plan.
func (s *Scan) Vars() []string { return s.OutVars }

// Run implements Plan.
func (s *Scan) Run() (*Rows, error) {
	doms := make([]*relation.Domain, len(s.OutCols))
	for i, c := range s.OutCols {
		doms[i] = s.Table.ColumnDomain(c)
	}
	out := &Rows{Vars: s.OutVars, Doms: doms}
	for i := 0; i < s.Table.Len(); i++ {
		row := s.Table.Row(i)
		ok := true
		for _, f := range s.Consts {
			if row[f.Col] != f.Code {
				ok = false
				break
			}
		}
		if ok {
			for _, e := range s.EqCols {
				if row[e[0]] != row[e[1]] {
					ok = false
					break
				}
			}
		}
		if !ok {
			continue
		}
		proj := make([]int32, len(s.OutCols))
		for j, c := range s.OutCols {
			proj[j] = row[c]
		}
		out.Data = append(out.Data, proj)
	}
	return dedupe(out), nil
}

// SQL implements Plan.
func (s *Scan) SQL() string {
	var conds []string
	names := s.Table.ColumnNames()
	for _, f := range s.Consts {
		conds = append(conds, fmt.Sprintf("%s = %q", names[f.Col], s.Table.ColumnDomain(f.Col).Value(f.Code)))
	}
	for _, e := range s.EqCols {
		conds = append(conds, fmt.Sprintf("%s = %s", names[e[0]], names[e[1]]))
	}
	cols := make([]string, len(s.OutCols))
	for i, c := range s.OutCols {
		cols[i] = fmt.Sprintf("%s AS %s", names[c], s.OutVars[i])
	}
	q := fmt.Sprintf("SELECT DISTINCT %s FROM %s", strings.Join(cols, ", "), s.Table.Name())
	if len(conds) > 0 {
		q += " WHERE " + strings.Join(conds, " AND ")
	}
	return q
}

// DomainScan produces one column holding every value of a domain — the
// active-domain fallback used when a variable is constrained only by
// comparisons in the current subformula.
type DomainScan struct {
	Var string
	Dom *relation.Domain
}

// Vars implements Plan.
func (d *DomainScan) Vars() []string { return []string{d.Var} }

// Run implements Plan.
func (d *DomainScan) Run() (*Rows, error) {
	out := &Rows{Vars: []string{d.Var}, Doms: []*relation.Domain{d.Dom}}
	for c := 0; c < d.Dom.Size(); c++ {
		out.Data = append(out.Data, []int32{int32(c)})
	}
	return out, nil
}

// SQL implements Plan.
func (d *DomainScan) SQL() string {
	return fmt.Sprintf("SELECT value AS %s FROM DOMAIN(%s)", d.Var, d.Dom.Name())
}

// Join is a natural hash join on the columns with equal variable names.
type Join struct {
	L, R Plan
}

// Vars implements Plan.
func (j *Join) Vars() []string {
	vars := append([]string(nil), j.L.Vars()...)
	lset := make(map[string]bool, len(vars))
	for _, v := range vars {
		lset[v] = true
	}
	for _, v := range j.R.Vars() {
		if !lset[v] {
			vars = append(vars, v)
		}
	}
	return vars
}

// Run implements Plan.
func (j *Join) Run() (*Rows, error) {
	l, err := j.L.Run()
	if err != nil {
		return nil, err
	}
	r, err := j.R.Run()
	if err != nil {
		return nil, err
	}
	var lShared, rShared []int
	var rExtra []int
	for ri, v := range r.Vars {
		if li := l.Col(v); li >= 0 {
			lShared = append(lShared, li)
			rShared = append(rShared, ri)
		} else {
			rExtra = append(rExtra, ri)
		}
	}
	out := &Rows{Vars: append([]string(nil), l.Vars...)}
	out.Doms = append([]*relation.Domain(nil), l.Doms...)
	for _, ri := range rExtra {
		out.Vars = append(out.Vars, r.Vars[ri])
		out.Doms = append(out.Doms, r.Doms[ri])
	}
	// Build on the smaller side.
	build, probe := r, l
	buildShared, probeShared := rShared, lShared
	swapped := false
	if l.Len() < r.Len() {
		build, probe = l, r
		buildShared, probeShared = lShared, rShared
		swapped = true
	}
	ht := make(map[string][]int, build.Len())
	for i, row := range build.Data {
		k := rowKey(row, buildShared)
		ht[k] = append(ht[k], i)
	}
	for _, prow := range probe.Data {
		for _, bi := range ht[rowKey(prow, probeShared)] {
			brow := build.Data[bi]
			lrow, rrow := prow, brow
			if swapped {
				lrow, rrow = brow, prow
			}
			merged := make([]int32, 0, len(out.Vars))
			merged = append(merged, lrow...)
			for _, ri := range rExtra {
				merged = append(merged, rrow[ri])
			}
			out.Data = append(out.Data, merged)
			if len(out.Data) > MaxRows {
				return nil, fmt.Errorf("%w: join of %s", ErrTooLarge, strings.Join(out.Vars, ","))
			}
		}
	}
	return dedupe(out), nil
}

// SQL implements Plan.
func (j *Join) SQL() string {
	return fmt.Sprintf("(%s)\nNATURAL JOIN\n(%s)", j.L.SQL(), j.R.SQL())
}

// AntiJoin keeps the rows of L with no R row matching on the variables the
// two sides share — the algebraic form of NOT EXISTS. Inner variables not
// produced by L act as existentials of the inner query. With no shared
// variables the inner side is a boolean guard: a nonempty R empties the
// result.
type AntiJoin struct {
	L, R Plan
}

// Vars implements Plan.
func (a *AntiJoin) Vars() []string { return a.L.Vars() }

// Run implements Plan.
func (a *AntiJoin) Run() (*Rows, error) {
	l, err := a.L.Run()
	if err != nil {
		return nil, err
	}
	r, err := a.R.Run()
	if err != nil {
		return nil, err
	}
	var lShared, rShared []int
	for ri, v := range r.Vars {
		if li := l.Col(v); li >= 0 {
			lShared = append(lShared, li)
			rShared = append(rShared, ri)
		}
	}
	if len(lShared) == 0 && r.Len() > 0 {
		return &Rows{Vars: l.Vars, Doms: l.Doms}, nil
	}
	ht := make(map[string]bool, r.Len())
	for _, row := range r.Data {
		ht[rowKey(row, rShared)] = true
	}
	out := &Rows{Vars: l.Vars, Doms: l.Doms}
	for _, row := range l.Data {
		if !ht[rowKey(row, lShared)] {
			out.Data = append(out.Data, row)
		}
	}
	return out, nil
}

// SQL implements Plan.
func (a *AntiJoin) SQL() string {
	shared := sharedVars(a.L.Vars(), a.R.Vars())
	return fmt.Sprintf("(%s)\nWHERE NOT EXISTS (%s matching on %s)",
		a.L.SQL(), a.R.SQL(), strings.Join(shared, ", "))
}

func sharedVars(l, r []string) []string {
	set := make(map[string]bool, len(l))
	for _, v := range l {
		set[v] = true
	}
	var out []string
	for _, v := range r {
		if set[v] {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// Project keeps only the named variables (set semantics).
type Project struct {
	Child Plan
	Keep  []string
}

// Vars implements Plan.
func (p *Project) Vars() []string { return p.Keep }

// Run implements Plan.
func (p *Project) Run() (*Rows, error) {
	in, err := p.Child.Run()
	if err != nil {
		return nil, err
	}
	cols := make([]int, len(p.Keep))
	doms := make([]*relation.Domain, len(p.Keep))
	for i, v := range p.Keep {
		c := in.Col(v)
		if c < 0 {
			return nil, fmt.Errorf("sqlengine: project: unknown variable %s", v)
		}
		cols[i] = c
		doms[i] = in.Doms[c]
	}
	out := &Rows{Vars: p.Keep, Doms: doms}
	for _, row := range in.Data {
		proj := make([]int32, len(cols))
		for i, c := range cols {
			proj[i] = row[c]
		}
		out.Data = append(out.Data, proj)
	}
	return dedupe(out), nil
}

// SQL implements Plan.
func (p *Project) SQL() string {
	return fmt.Sprintf("SELECT DISTINCT %s FROM (%s)", strings.Join(p.Keep, ", "), p.Child.SQL())
}

// Union is set union; both sides must produce the same variables (in any
// order).
type Union struct {
	L, R Plan
}

// Vars implements Plan.
func (u *Union) Vars() []string { return u.L.Vars() }

// Run implements Plan.
func (u *Union) Run() (*Rows, error) {
	l, err := u.L.Run()
	if err != nil {
		return nil, err
	}
	r, err := u.R.Run()
	if err != nil {
		return nil, err
	}
	cols := make([]int, len(l.Vars))
	for i, v := range l.Vars {
		c := r.Col(v)
		if c < 0 {
			return nil, fmt.Errorf("sqlengine: union: variable %s missing on the right side", v)
		}
		cols[i] = c
	}
	out := &Rows{Vars: l.Vars, Doms: l.Doms, Data: append([][]int32(nil), l.Data...)}
	for _, row := range r.Data {
		aligned := make([]int32, len(cols))
		for i, c := range cols {
			aligned[i] = row[c]
		}
		out.Data = append(out.Data, aligned)
	}
	return dedupe(out), nil
}

// SQL implements Plan.
func (u *Union) SQL() string {
	return fmt.Sprintf("(%s)\nUNION\n(%s)", u.L.SQL(), u.R.SQL())
}

// Diff is set difference; both sides must produce the same variables.
type Diff struct {
	L, R Plan
}

// Vars implements Plan.
func (d *Diff) Vars() []string { return d.L.Vars() }

// Run implements Plan.
func (d *Diff) Run() (*Rows, error) {
	l, err := d.L.Run()
	if err != nil {
		return nil, err
	}
	r, err := d.R.Run()
	if err != nil {
		return nil, err
	}
	cols := make([]int, len(l.Vars))
	for i, v := range l.Vars {
		c := r.Col(v)
		if c < 0 {
			return nil, fmt.Errorf("sqlengine: difference: variable %s missing on the right side", v)
		}
		cols[i] = c
	}
	ht := make(map[string]bool, r.Len())
	for _, row := range r.Data {
		aligned := make([]int32, len(cols))
		for i, c := range cols {
			aligned[i] = row[c]
		}
		ht[rowKey(aligned, allCols(len(cols)))] = true
	}
	out := &Rows{Vars: l.Vars, Doms: l.Doms}
	full := allCols(len(l.Vars))
	for _, row := range l.Data {
		if !ht[rowKey(row, full)] {
			out.Data = append(out.Data, row)
		}
	}
	return dedupe(out), nil
}

// SQL implements Plan.
func (d *Diff) SQL() string {
	return fmt.Sprintf("(%s)\nEXCEPT\n(%s)", d.L.SQL(), d.R.SQL())
}

// Filter applies comparison predicates to its child's rows.
type Filter struct {
	Child Plan
	// EqVar pairs of variables that must be equal; NeqVar that must differ.
	EqVar  [][2]string
	NeqVar [][2]string
	// EqConst/NeqConst: variable = / != code.
	EqConst  []VarConst
	NeqConst []VarConst
	// InSet: variable ∈ codes.
	InSet []VarSet
}

// VarConst pairs a variable with a constant code.
type VarConst struct {
	Var  string
	Code int32
	// Miss marks a constant that does not occur in the variable's domain
	// dictionary: equality is then unsatisfiable, inequality a tautology.
	Miss bool
}

// VarSet pairs a variable with a set of constant codes.
type VarSet struct {
	Var   string
	Codes map[int32]bool
}

// Vars implements Plan.
func (f *Filter) Vars() []string { return f.Child.Vars() }

// Run implements Plan.
func (f *Filter) Run() (*Rows, error) {
	in, err := f.Child.Run()
	if err != nil {
		return nil, err
	}
	col := func(v string) (int, error) {
		c := in.Col(v)
		if c < 0 {
			return 0, fmt.Errorf("sqlengine: filter: unknown variable %s", v)
		}
		return c, nil
	}
	out := &Rows{Vars: in.Vars, Doms: in.Doms}
rows:
	for _, row := range in.Data {
		for _, p := range f.EqVar {
			a, err := col(p[0])
			if err != nil {
				return nil, err
			}
			b, err := col(p[1])
			if err != nil {
				return nil, err
			}
			if row[a] != row[b] {
				continue rows
			}
		}
		for _, p := range f.NeqVar {
			a, err := col(p[0])
			if err != nil {
				return nil, err
			}
			b, err := col(p[1])
			if err != nil {
				return nil, err
			}
			if row[a] == row[b] {
				continue rows
			}
		}
		for _, p := range f.EqConst {
			if p.Miss {
				continue rows
			}
			c, err := col(p.Var)
			if err != nil {
				return nil, err
			}
			if row[c] != p.Code {
				continue rows
			}
		}
		for _, p := range f.NeqConst {
			if p.Miss {
				continue
			}
			c, err := col(p.Var)
			if err != nil {
				return nil, err
			}
			if row[c] == p.Code {
				continue rows
			}
		}
		for _, p := range f.InSet {
			c, err := col(p.Var)
			if err != nil {
				return nil, err
			}
			if !p.Codes[row[c]] {
				continue rows
			}
		}
		out.Data = append(out.Data, row)
	}
	return out, nil
}

// SQL implements Plan.
func (f *Filter) SQL() string {
	var conds []string
	for _, p := range f.EqVar {
		conds = append(conds, fmt.Sprintf("%s = %s", p[0], p[1]))
	}
	for _, p := range f.NeqVar {
		conds = append(conds, fmt.Sprintf("%s <> %s", p[0], p[1]))
	}
	for _, p := range f.EqConst {
		conds = append(conds, fmt.Sprintf("%s = code(%d)", p.Var, p.Code))
	}
	for _, p := range f.NeqConst {
		conds = append(conds, fmt.Sprintf("%s <> code(%d)", p.Var, p.Code))
	}
	for _, p := range f.InSet {
		conds = append(conds, fmt.Sprintf("%s IN (%d values)", p.Var, len(p.Codes)))
	}
	return fmt.Sprintf("SELECT * FROM (%s) WHERE %s", f.Child.SQL(), strings.Join(conds, " AND "))
}

// Unit is the zero-column relation with one row (the neutral element of
// natural join, the translation of "true").
type Unit struct{}

// Vars implements Plan.
func (Unit) Vars() []string { return nil }

// Run implements Plan.
func (Unit) Run() (*Rows, error) {
	return &Rows{Data: [][]int32{{}}}, nil
}

// SQL implements Plan.
func (Unit) SQL() string { return "SELECT 1" }

// Empty is the zero-column empty relation (the translation of "false").
type Empty struct {
	Cols []string
	// Doms carries the value domains of Cols; consumers like Union take
	// column metadata from whichever side they visit first, so an Empty
	// standing in for a short-circuited subformula must still describe its
	// columns fully.
	Doms []*relation.Domain
}

// Vars implements Plan.
func (e Empty) Vars() []string { return e.Cols }

// Run implements Plan.
func (e Empty) Run() (*Rows, error) {
	doms := e.Doms
	if len(doms) != len(e.Cols) {
		doms = make([]*relation.Domain, len(e.Cols))
	}
	return &Rows{Vars: e.Cols, Doms: doms}, nil
}

// SQL implements Plan.
func (e Empty) SQL() string { return "SELECT NULL WHERE FALSE" }
