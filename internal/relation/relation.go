// Package relation provides the in-memory relational storage the logical
// indices and the SQL baseline operate on: dictionary-encoded columns,
// shared value domains, tables with insert/delete, and CSV import/export.
//
// Every column is attached to a named Domain whose dictionary maps attribute
// values to dense integer codes. Columns that are compared or joined by
// constraints (for example STUDENT.student_id and TAKES.student_id) must
// share a Domain so that equal values receive equal codes; the Catalog
// enforces this by construction.
package relation

import (
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Domain is a named value dictionary shared by one or more table columns.
// Codes are dense: the first distinct value interned gets code 0.
type Domain struct {
	name   string
	byVal  map[string]int32
	values []string
}

// Name returns the domain name.
func (d *Domain) Name() string { return d.name }

// Size returns the number of distinct values interned so far. It is the
// active-domain size the paper's encodings and statistics are based on.
func (d *Domain) Size() int { return len(d.values) }

// Values returns the dictionary in code order: Values()[c] is the value of
// code c. The returned slice must not be modified. Re-interning the values
// of one domain into an empty domain in this order reproduces every code —
// the property snapshot restore depends on.
func (d *Domain) Values() []string { return d.values }

// Intern returns the code for v, assigning the next free code if v is new.
func (d *Domain) Intern(v string) int32 {
	if c, ok := d.byVal[v]; ok {
		return c
	}
	c := int32(len(d.values))
	d.byVal[v] = c
	d.values = append(d.values, v)
	return c
}

// Code returns the code for v, or false if v has never been interned.
func (d *Domain) Code(v string) (int32, bool) {
	c, ok := d.byVal[v]
	return c, ok
}

// Value returns the value for a code previously returned by Intern.
func (d *Domain) Value(code int32) string {
	if code < 0 || int(code) >= len(d.values) {
		panic(fmt.Sprintf("relation: code %d out of range for domain %q", code, d.name))
	}
	return d.values[code]
}

// Catalog owns domains and tables and guarantees domain sharing by name.
type Catalog struct {
	domains map[string]*Domain
	tables  map[string]*Table
	order   []string // table creation order, for deterministic listings
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		domains: make(map[string]*Domain),
		tables:  make(map[string]*Table),
	}
}

// Domain returns the domain with the given name, creating it if needed.
func (c *Catalog) Domain(name string) *Domain {
	if d, ok := c.domains[name]; ok {
		return d
	}
	d := &Domain{name: name, byVal: make(map[string]int32)}
	c.domains[name] = d
	return d
}

// Clone returns a deep snapshot of the catalog: domains are deep-copied and
// every table gets a fresh schema and a fresh outer row slice. The encoded
// row slices themselves are shared with the original — no mutator ever
// writes through an existing row in place (Insert appends fresh rows,
// DeleteCodes moves whole-row pointers, Truncate shortens the outer slice),
// so shared rows stay valid while the original keeps mutating. A table's
// multiset of rows (see Count) is not copied: a clone builds its own on its
// first delete or count, which a frozen version never asks for. As long as
// the clone itself is never mutated it is an immutable snapshot, safe to
// read from any number of goroutines; the replication layer freezes catalog
// versions this way.
func (c *Catalog) Clone() *Catalog {
	nc := NewCatalog()
	for name, d := range c.domains {
		nd := &Domain{
			name:   d.name,
			byVal:  make(map[string]int32, len(d.byVal)),
			values: append([]string(nil), d.values...),
		}
		for v, code := range d.byVal {
			nd.byVal[v] = code
		}
		nc.domains[name] = nd
	}
	nc.order = append([]string(nil), c.order...)
	for name, t := range c.tables {
		nt := &Table{name: t.name, catalog: nc, version: t.version}
		nt.cols = make([]columnInfo, len(t.cols))
		for i, col := range t.cols {
			nt.cols[i] = columnInfo{name: col.name, domain: nc.domains[col.domain.name]}
		}
		nt.rows = append(make([][]int32, 0, len(t.rows)), t.rows...)
		nc.tables[name] = nt
	}
	return nc
}

// Domains lists the catalog's domains sorted by name. Serialization relies
// on this being every domain any column refers to.
func (c *Catalog) Domains() []*Domain {
	out := make([]*Domain, 0, len(c.domains))
	for _, d := range c.domains {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Column declares one attribute of a table schema.
type Column struct {
	// Name is the attribute name, unique within its table.
	Name string
	// Domain names the value domain. Columns in any table that share a
	// Domain name share codes. If empty, Name is used.
	Domain string
}

// CreateTable creates and registers an empty table.
func (c *Catalog) CreateTable(name string, cols []Column) (*Table, error) {
	if _, dup := c.tables[name]; dup {
		return nil, fmt.Errorf("relation: table %q already exists", name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("relation: table %q has no columns", name)
	}
	t := &Table{name: name, catalog: c}
	seen := map[string]bool{}
	for _, col := range cols {
		if seen[col.Name] {
			return nil, fmt.Errorf("relation: table %q: duplicate column %q", name, col.Name)
		}
		seen[col.Name] = true
		domName := col.Domain
		if domName == "" {
			domName = col.Name
		}
		t.cols = append(t.cols, columnInfo{name: col.Name, domain: c.Domain(domName)})
	}
	c.tables[name] = t
	c.order = append(c.order, name)
	return t, nil
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table { return c.tables[name] }

// Tables lists the catalog's tables in creation order.
func (c *Catalog) Tables() []*Table {
	out := make([]*Table, 0, len(c.order))
	for _, n := range c.order {
		out = append(out, c.tables[n])
	}
	return out
}

type columnInfo struct {
	name   string
	domain *Domain
}

// Table is a bag of tuples with dictionary-encoded columns. Row order is
// insertion order; deletions compact by swapping with the last row.
type Table struct {
	name    string
	catalog *Catalog
	cols    []columnInfo
	rows    [][]int32
	version uint64
	// first and next hold the table as a multiset: first maps each distinct
	// row, keyed by AppendKey, to the position of the first row equal to it,
	// and next[i] is the position of the next row equal to row i, or -1.
	// They are built on the first DeleteCodes or Count, so only a table that
	// is mutated pays for them, and every mutator keeps them current.
	first map[string]int32
	next  []int32
	key   []byte // scratch for the key of the row being looked up
	all   []int  // every column, the columns of a row's key; nil until needed
}

// Version returns a counter that increases on every mutation of the table.
// Caches keyed on table contents (the evaluator's predicate cache) use it
// for invalidation.
func (t *Table) Version() uint64 { return t.version }

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// ColumnNames returns the attribute names in schema order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.cols))
	for i, c := range t.cols {
		out[i] = c.name
	}
	return out
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.cols {
		if c.name == name {
			return i
		}
	}
	return -1
}

// ColumnDomain returns the value domain of column i.
func (t *Table) ColumnDomain(i int) *Domain { return t.cols[i].domain }

// Insert appends the tuple given as attribute values, interning new values
// into the column domains, and returns the encoded row.
func (t *Table) Insert(vals ...string) []int32 {
	if len(vals) != len(t.cols) {
		panic(fmt.Sprintf("relation: insert into %q with %d values, want %d", t.name, len(vals), len(t.cols)))
	}
	row := make([]int32, len(vals))
	for i, v := range vals {
		row[i] = t.cols[i].domain.Intern(v)
	}
	t.appendRow(row)
	return row
}

// InsertCodes appends an already-encoded tuple. The caller is responsible
// for the codes being valid for the column domains.
func (t *Table) InsertCodes(row []int32) {
	if len(row) != len(t.cols) {
		panic(fmt.Sprintf("relation: insert into %q with %d codes, want %d", t.name, len(row), len(t.cols)))
	}
	t.appendRow(append([]int32(nil), row...))
}

func (t *Table) appendRow(row []int32) {
	if t.first != nil {
		t.next = append(t.next, -1)
		t.link(string(t.keyOf(row)), int32(len(t.rows)))
	}
	t.rows = append(t.rows, row)
	t.version++
}

// Delete removes the first row equal to the given attribute values and
// reports whether one was found.
func (t *Table) Delete(vals ...string) bool {
	if len(vals) != len(t.cols) {
		panic(fmt.Sprintf("relation: delete from %q with %d values, want %d", t.name, len(vals), len(t.cols)))
	}
	row := make([]int32, len(vals))
	for i, v := range vals {
		c, ok := t.cols[i].domain.Code(v)
		if !ok {
			return false
		}
		row[i] = c
	}
	return t.DeleteCodes(row)
}

// DeleteCodes removes the first row equal to the encoded tuple and reports
// whether one was found. The last row takes the removed row's place, so the
// other rows keep their order. The table's multiset of rows finds the row,
// so a delete costs O(1) in the table's size (O(copies) for a row the table
// holds several times).
func (t *Table) DeleteCodes(row []int32) bool {
	t.buildMultiset()
	if len(row) != len(t.cols) {
		return false
	}
	at, ok := t.first[string(t.keyOf(row))]
	if !ok {
		return false
	}
	t.unlink(string(t.key), at)
	last := int32(len(t.rows) - 1)
	if at != last {
		moved := t.rows[last]
		k := string(t.keyOf(moved))
		t.unlink(k, last)
		t.rows[at] = moved
		t.link(k, at)
	}
	t.rows = t.rows[:last]
	t.next = t.next[:last]
	t.version++
	return true
}

// Count returns how many of the table's rows equal the encoded tuple.
func (t *Table) Count(row []int32) int {
	t.buildMultiset()
	if len(row) != len(t.cols) {
		return 0
	}
	n := 0
	if at, ok := t.first[string(t.keyOf(row))]; ok {
		for ; at >= 0; at = t.next[at] {
			n++
		}
	}
	return n
}

// buildMultiset builds the table's multiset of rows unless it is built.
// Walking the rows backwards links each chain in ascending order.
func (t *Table) buildMultiset() {
	if t.first != nil {
		return
	}
	t.first = make(map[string]int32, len(t.rows))
	t.next = make([]int32, len(t.rows))
	for i := len(t.rows) - 1; i >= 0; i-- {
		k := t.keyOf(t.rows[i])
		at, ok := t.first[string(k)]
		if !ok {
			at = -1
		}
		t.next[i] = at
		t.first[string(k)] = int32(i)
	}
}

// link puts position at into the chain of the rows keyed k, in ascending
// order.
func (t *Table) link(k string, at int32) {
	head, ok := t.first[k]
	if !ok || at < head {
		if !ok {
			head = -1
		}
		t.next[at] = head
		t.first[k] = at
		return
	}
	i := head
	for t.next[i] >= 0 && t.next[i] < at {
		i = t.next[i]
	}
	t.next[at] = t.next[i]
	t.next[i] = at
}

// unlink takes position at out of the chain of the rows keyed k.
func (t *Table) unlink(k string, at int32) {
	if head := t.first[k]; head == at {
		if t.next[at] < 0 {
			delete(t.first, k)
		} else {
			t.first[k] = t.next[at]
		}
		return
	}
	i := t.first[k]
	for t.next[i] != at {
		i = t.next[i]
	}
	t.next[i] = t.next[at]
}

func (t *Table) keyOf(row []int32) []byte {
	if t.all == nil {
		t.all = make([]int, len(t.cols))
		for i := range t.all {
			t.all[i] = i
		}
	}
	t.key = AppendKey(t.key[:0], row, t.all)
	return t.key
}

// AppendKey appends the key of row's codes at cols to dst: their uvarints,
// so no two rows share a key over the same columns. A table's multiset of
// rows, a batch's validation, an index's counts and the SQL engine's hash
// tables key rows this way.
func AppendKey(dst []byte, row []int32, cols []int) []byte {
	for _, c := range cols {
		dst = binary.AppendUvarint(dst, uint64(row[c]))
	}
	return dst
}

// Row returns the encoded row at index i. The slice must not be modified.
func (t *Table) Row(i int) []int32 { return t.rows[i] }

// Rows returns all encoded rows. The backing storage must not be modified.
func (t *Table) Rows() [][]int32 { return t.rows }

// Value decodes column c of row r.
func (t *Table) Value(r, c int) string { return t.cols[c].domain.Value(t.rows[r][c]) }

// Clone returns a deep copy of the table registered under newName.
func (t *Table) Clone(newName string) (*Table, error) {
	cols := make([]Column, len(t.cols))
	for i, c := range t.cols {
		cols[i] = Column{Name: c.name, Domain: c.domain.name}
	}
	nt, err := t.catalog.CreateTable(newName, cols)
	if err != nil {
		return nil, err
	}
	nt.rows = make([][]int32, len(t.rows))
	for i, r := range t.rows {
		nt.rows[i] = append([]int32(nil), r...)
	}
	return nt, nil
}

// Truncate removes all rows but keeps the schema and domains.
func (t *Table) Truncate() {
	t.rows = t.rows[:0]
	t.first, t.next = nil, nil
	t.version++
}

// WriteCSV writes the table with a header row of column names, as CSV that
// ReadCSV reads back to the same header and rows.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := writeRecord(cw, w, t.ColumnNames()); err != nil {
		return err
	}
	rec := make([]string, len(t.cols))
	for r := range t.rows {
		for c := range t.cols {
			rec[c] = t.Value(r, c)
		}
		if err := writeRecord(cw, w, rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeRecord writes rec through cw, except a lone empty field: csv.Writer
// writes it as a blank line, which csv.Reader skips, so it goes to w quoted.
func writeRecord(cw *csv.Writer, w io.Writer, rec []string) error {
	if len(rec) != 1 || rec[0] != "" {
		return cw.Write(rec)
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\"\"\n")
	return err
}

// ShareUsage is the help text of the -share flag that ParseShare reads.
const ShareUsage = "comma-separated shared columns: col shares a domain with every column of that name, col=domain puts col in the named domain"

// ParseShare reads a -share list into ReadCSV's column → domain map. An
// entry col puts every column named col in the domain col; col=domain puts
// it in the named domain, so it joins a column of another name.
func ParseShare(s string) (map[string]string, error) {
	out := make(map[string]string)
	for _, entry := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' }) {
		col, dom, named := strings.Cut(entry, "=")
		col, dom = strings.TrimSpace(col), strings.TrimSpace(dom)
		if !named {
			dom = col
		}
		if col == "" || dom == "" || strings.Contains(dom, "=") {
			return nil, fmt.Errorf("relation: -share entry %q: want col or col=domain", entry)
		}
		out[col] = dom
	}
	return out, nil
}

// ReadCSV creates a table named name from CSV data with a header row. Each
// column's domain defaults to its header name prefixed with the table name
// unless a name→domain override is given in domains. The table is
// registered only once every row has been read: on an error the catalog is
// as it was, and a retry under the same name can succeed. A field holding
// "\r\n" is refused: csv.Reader reads that pair inside quotes as "\n", so
// no CSV that WriteCSV could write would read back to it.
func (c *Catalog) ReadCSV(name string, r io.Reader, domains map[string]string) (*Table, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading %q header: %w", name, err)
	}
	if err := checkCSVFields(name, header); err != nil {
		return nil, err
	}
	cols := make([]Column, len(header))
	for i, h := range header {
		dom := name + "." + h
		if d, ok := domains[h]; ok {
			dom = d
		}
		cols[i] = Column{Name: h, Domain: dom}
	}
	var recs [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: reading %q: %w", name, err)
		}
		if err := checkCSVFields(name, rec); err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	t, err := c.CreateTable(name, cols)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		t.Insert(rec...)
	}
	return t, nil
}

func checkCSVFields(name string, rec []string) error {
	for _, f := range rec {
		if strings.Contains(f, "\r\n") {
			return fmt.Errorf("relation: reading %q: field %q holds a carriage return before a line feed", name, f)
		}
	}
	return nil
}

// ReadCSVFile creates a table named name from the CSV file at path, like
// ReadCSV — the bootstrap path of the CLIs and the cvserved daemon.
func (c *Catalog) ReadCSVFile(name, path string, domains map[string]string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("relation: %w", err)
	}
	defer f.Close()
	return c.ReadCSV(name, f, domains)
}
