package difftest

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
)

// corpus.go serializes cases as human-readable, line-oriented .case files.
// Shrunken repros of fixed divergences live under testdata/ in this format
// and are replayed by TestCorpus as regression seeds; the format is also
// the handle for reproducing a failure by name (see README, "Testing &
// fuzzing"). Identifiers (domain, table, column, constraint names and the
// ordering method) are written bare, so LoadCase refuses one that would not
// read back as itself; every data value and constraint source is Go-quoted,
// so values may contain spaces or any byte.
//
// Grammar, one directive per line ('#' starts a comment):
//
//	ordering <method>
//	seed <int64>
//	domain <name> <value>...
//	table <name>
//	col <name> <domain>          # applies to the last table
//	row <value>...               # applies to the last table
//	batch                        # starts a new update batch
//	insert <table> <value>...    # applies to the last batch
//	delete <table> <value>...    # applies to the last batch
//	constraint <name> <source>
//	config <target>...           # follower, service, shards=<k>, debug
//
// A file without a config directive is replica-only.

// SaveCase renders the case in corpus format.
func SaveCase(c *Case) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# difftest case\nordering %s\nseed %d\n", c.Ordering, c.Seed)
	for _, d := range c.Domains {
		fmt.Fprintf(&b, "domain %s%s\n", d.Name, quoteAll(d.Values))
	}
	for _, t := range c.Tables {
		fmt.Fprintf(&b, "table %s\n", t.Name)
		for _, col := range t.Cols {
			fmt.Fprintf(&b, "col %s %s\n", col.Name, col.Domain)
		}
		for _, row := range t.Rows {
			fmt.Fprintf(&b, "row%s\n", quoteAll(row))
		}
	}
	for _, batch := range c.Updates {
		fmt.Fprintf(&b, "batch\n")
		for _, u := range batch {
			op := "insert"
			if u.Op == core.UpdateDelete {
				op = "delete"
			}
			fmt.Fprintf(&b, "%s %s%s\n", op, u.Table, quoteAll(u.Values))
		}
	}
	for _, ct := range c.Constraints {
		fmt.Fprintf(&b, "constraint %s %s\n", ct.Name, strconv.Quote(ct.Source))
	}
	if words := c.Config.words(); len(words) > 0 {
		fmt.Fprintf(&b, "config %s\n", strings.Join(words, " "))
	}
	return b.String()
}

// words renders the config directive's arguments, none for the zero Config.
func (g Config) words() []string {
	var out []string
	for _, w := range []struct {
		on   bool
		word string
	}{{g.Follower, "follower"}, {g.Service, "service"}, {g.Shards != 0, fmt.Sprintf("shards=%d", g.Shards)}, {g.DebugChecks, "debug"}} {
		if w.on {
			out = append(out, w.word)
		}
	}
	return out
}

// parseConfig reads the config directive's arguments. It refuses an unknown
// or repeated target and a shard count outside 2..maxShards.
func parseConfig(words []string) (Config, error) {
	var g Config
	for _, w := range words {
		n, err := strconv.Atoi(strings.TrimPrefix(w, "shards="))
		switch {
		case w == "follower" && !g.Follower:
			g.Follower = true
		case w == "service" && !g.Service:
			g.Service = true
		case w == "debug" && !g.DebugChecks:
			g.DebugChecks = true
		case strings.HasPrefix(w, "shards=") && g.Shards == 0 && err == nil && n >= 2 && n <= maxShards:
			g.Shards = n
		default:
			return Config{}, fmt.Errorf("config: want follower, service, debug or shards=<2..%d>, each once; got %q", maxShards, w)
		}
	}
	return g, nil
}

// SaveCaseFile writes the case to dir/name.case and returns the path.
func SaveCaseFile(dir, name string, c *Case) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".case")
	if err := os.WriteFile(path, []byte(SaveCase(c)), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadCase parses the corpus format.
func LoadCase(data []byte) (*Case, error) {
	c := &Case{Ordering: "prob"}
	var curTable *TableSpec
	var curBatch int = -1
	var haveConfig bool
	for ln, line := range strings.Split(string(data), "\n") {
		fields, err := splitFields(line)
		if err != nil {
			return nil, fmt.Errorf("difftest: corpus line %d: %w", ln+1, err)
		}
		if len(fields) == 0 {
			continue
		}
		bad := func(want string) error {
			return fmt.Errorf("difftest: corpus line %d: %s directive wants %s", ln+1, fields[0], want)
		}
		for _, id := range fields[1:min(len(fields), 1+identFields[fields[0]])] {
			// splitFields ends a bare word at a blank, and a leading quote
			// or '#' would start a quoted field or a comment.
			if id == "" || id[0] == '"' || id[0] == '#' || strings.ContainsAny(id, " \t\r\n") {
				return nil, fmt.Errorf("difftest: corpus line %d: %s directive: identifier %q is not a bare word", ln+1, fields[0], id)
			}
		}
		switch fields[0] {
		case "ordering":
			if len(fields) != 2 {
				return nil, bad("a method name")
			}
			c.Ordering = fields[1]
		case "seed":
			if len(fields) != 2 {
				return nil, bad("an integer")
			}
			s, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("difftest: corpus line %d: %w", ln+1, err)
			}
			c.Seed = s
		case "domain":
			if len(fields) < 2 {
				return nil, bad("a name and values")
			}
			c.Domains = append(c.Domains, DomainSpec{Name: fields[1], Values: fields[2:]})
		case "table":
			if len(fields) != 2 {
				return nil, bad("a name")
			}
			c.Tables = append(c.Tables, TableSpec{Name: fields[1]})
			curTable = &c.Tables[len(c.Tables)-1]
		case "col":
			if curTable == nil {
				return nil, fmt.Errorf("difftest: corpus line %d: col before table", ln+1)
			}
			if len(fields) != 3 {
				return nil, bad("a name and a domain")
			}
			curTable.Cols = append(curTable.Cols, ColSpec{Name: fields[1], Domain: fields[2]})
		case "row":
			if curTable == nil {
				return nil, fmt.Errorf("difftest: corpus line %d: row before table", ln+1)
			}
			curTable.Rows = append(curTable.Rows, fields[1:])
		case "batch":
			c.Updates = append(c.Updates, nil)
			curBatch = len(c.Updates) - 1
		case "insert", "delete":
			if curBatch < 0 {
				return nil, fmt.Errorf("difftest: corpus line %d: %s before batch", ln+1, fields[0])
			}
			if len(fields) < 2 {
				return nil, bad("a table and values")
			}
			op := core.UpdateInsert
			if fields[0] == "delete" {
				op = core.UpdateDelete
			}
			c.Updates[curBatch] = append(c.Updates[curBatch], core.Update{Table: fields[1], Op: op, Values: fields[2:]})
		case "constraint":
			if len(fields) != 3 {
				return nil, bad("a name and a quoted source")
			}
			c.Constraints = append(c.Constraints, ConstraintSpec{Name: fields[1], Source: fields[2]})
		case "config":
			if haveConfig {
				return nil, fmt.Errorf("difftest: corpus line %d: a second config directive", ln+1)
			}
			haveConfig = true
			if c.Config, err = parseConfig(fields[1:]); err != nil {
				return nil, fmt.Errorf("difftest: corpus line %d: %w", ln+1, err)
			}
		default:
			return nil, fmt.Errorf("difftest: corpus line %d: unknown directive %q", ln+1, fields[0])
		}
	}
	return c, nil
}

// LoadCaseFile reads and parses one .case file.
func LoadCaseFile(path string) (*Case, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return LoadCase(data)
}

// identFields is how many of a directive's arguments, from the first, are
// identifiers, which SaveCase writes bare: LoadCase refuses one that would
// not read back as itself.
var identFields = map[string]int{
	"ordering": 1, "domain": 1, "table": 1, "col": 2, "insert": 1, "delete": 1, "constraint": 1,
}

func quoteAll(vals []string) string {
	var b strings.Builder
	for _, v := range vals {
		b.WriteByte(' ')
		b.WriteString(strconv.Quote(v))
	}
	return b.String()
}

// splitFields tokenizes one line: bare words separated by spaces, with
// Go-quoted strings as single fields; '#' outside quotes starts a comment.
func splitFields(line string) ([]string, error) {
	var out []string
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
			i++
		}
		if i >= len(line) || line[i] == '#' {
			break
		}
		if line[i] == '"' {
			j := i + 1
			for j < len(line) && line[j] != '"' {
				if line[j] == '\\' {
					j++
				}
				j++
			}
			if j >= len(line) {
				return nil, fmt.Errorf("unterminated quote")
			}
			s, err := strconv.Unquote(line[i : j+1])
			if err != nil {
				return nil, err
			}
			out = append(out, s)
			i = j + 1
		} else {
			j := i
			for j < len(line) && line[j] != ' ' && line[j] != '\t' && line[j] != '\r' {
				j++
			}
			out = append(out, line[i:j])
			i = j
		}
	}
	return out, nil
}
