// Command cvcheck validates first-order constraints against CSV tables
// using BDD logical indices with SQL fallback — the end-to-end tool form of
// the paper's system.
//
// Usage:
//
//	cvcheck -table CUST=cust.csv -table CONS=cons.csv \
//	        -share city,areacode \
//	        -constraints rules.txt [-order prob] [-budget 1000000] \
//	        [-witnesses 5] [-explain]
//
// Each CSV file needs a header row. Columns with the same header name are
// joinable across tables when listed in -share, and an entry col=domain puts
// column col in the named domain, so it joins a column of another name;
// otherwise every column gets a private value domain. The constraints file holds declarations of the
// form:
//
//	constraint nj_codes:
//	    forall c, a: CUST(c, a, "NJ") => a in {"201", "973", "908"}.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/relation"
)

type tableFlag struct {
	name, path string
}

func main() {
	var tables []tableFlag
	flag.Func("table", "NAME=path.csv (repeatable)", func(s string) error {
		name, path, ok := strings.Cut(s, "=")
		if !ok {
			return fmt.Errorf("want NAME=path.csv, got %q", s)
		}
		tables = append(tables, tableFlag{name, path})
		return nil
	})
	var shared map[string]string
	flag.Func("share", relation.ShareUsage, func(s string) (err error) { shared, err = relation.ParseShare(s); return err })
	constraintsPath := flag.String("constraints", "", "constraints file (required)")
	orderFlag := flag.String("order", "prob", "variable ordering: prob|maxinf|random|schema")
	budget := flag.Int("budget", core.DefaultNodeBudget, "BDD node budget (negative = unlimited)")
	witnesses := flag.Int("witnesses", 3, "violating bindings to print per constraint")
	explain := flag.Bool("explain", false, "print the SQL form of each violation query")
	flag.Parse()

	if len(tables) == 0 || *constraintsPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	method, err := core.ParseOrderingMethod(*orderFlag)
	if err != nil {
		fatal(err)
	}

	cat := relation.NewCatalog()
	for _, tf := range tables {
		t, err := cat.ReadCSVFile(tf.name, tf.path, shared)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded %s: %d rows, %d columns\n", t.Name(), t.Len(), t.NumCols())
	}

	src, err := os.ReadFile(*constraintsPath)
	if err != nil {
		fatal(err)
	}
	constraints, err := logic.ParseConstraints(string(src))
	if err != nil {
		fatal(err)
	}

	chk := core.New(cat, core.Options{NodeBudget: *budget})
	for _, tf := range tables {
		ix, err := chk.BuildIndex(tf.name, tf.name, nil, method)
		if err != nil {
			fmt.Printf("index %s: %v (constraints on it fall back to SQL)\n", tf.name, err)
			continue
		}
		fmt.Printf("index %s: %d nodes\n", tf.name, ix.NodeCount())
	}

	fmt.Println()
	exit := 0
	for _, ct := range constraints {
		res := chk.CheckOne(ct)
		switch {
		case res.Err != nil:
			fmt.Printf("%-24s ERROR: %v\n", ct.Name, res.Err)
			exit = 2
		case res.Violated:
			fmt.Printf("%-24s VIOLATED (method=%s, %v)\n", ct.Name, res.Method, res.Duration.Round(0))
			exit = 1
			if *witnesses > 0 {
				printWitnesses(chk, ct, *witnesses)
			}
		default:
			fmt.Printf("%-24s ok       (method=%s, %v)\n", ct.Name, res.Method, res.Duration.Round(0))
		}
		if *explain {
			if sql, err := chk.SQLOf(ct); err == nil {
				fmt.Printf("  -- SQL:\n%s\n", indent(sql, "  "))
			}
		}
	}
	os.Exit(exit)
}

func printWitnesses(chk *core.Checker, ct logic.Constraint, limit int) {
	for _, w := range chk.Witnesses(ct, limit, core.CheckOptions{}).Witnesses {
		fmt.Printf("  witness: %v = %v\n", w.Vars, w.Values)
	}
}

func indent(s, pre string) string {
	return pre + strings.ReplaceAll(s, "\n", "\n"+pre)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cvcheck:", err)
	os.Exit(2)
}
