package core_test

// example_test.go holds the runnable walk-throughs: go test -run Example
// ./internal/core runs each and compares what it prints with its Output
// block, so none can drift from the code. They print verdicts, methods and
// witnesses, never durations.

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/relation"
)

// Example_quickstart builds a small database, declares two constraints,
// finds the violated one through the BDD logical indices, then drills into
// the violating tuples.
func Example_quickstart() {
	// A catalog with one table of phone customers. Columns that constraints
	// compare must share a named domain.
	cat := relation.NewCatalog()
	cust, err := cat.CreateTable("CUST", []relation.Column{
		{Name: "city", Domain: "city"},
		{Name: "areacode", Domain: "areacode"},
		{Name: "state", Domain: "state"},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range [][3]string{
		{"Toronto", "416", "Ontario"},
		{"Toronto", "647", "Ontario"},
		{"Oshawa", "905", "Ontario"},
		{"Newark", "973", "NJ"},
		{"Trenton", "609", "NJ"},
		{"Newark", "416", "NJ"}, // a bad tuple: 416 is not a NJ areacode
	} {
		cust.Insert(row[0], row[1], row[2])
	}

	// A checker with a logical index on the table. Prob-Converge picks the
	// variable ordering (§3.2 of the paper).
	chk := core.New(cat, core.Options{})
	if _, err := chk.BuildIndex("CUST", "CUST", nil, core.OrderProbConverge); err != nil {
		log.Fatal(err)
	}

	// Constraints in first-order logic, the paper's two example classes: a
	// membership constraint and an implication constraint.
	constraints, err := logic.ParseConstraints(`
		constraint nj_areacodes:
		    forall c, a: CUST(c, a, "NJ") => a in {"201", "973", "908", "609"}.
		constraint toronto_in_ontario:
		    forall a, s: CUST("Toronto", a, s) => s = "Ontario".
	`)
	if err != nil {
		log.Fatal(err)
	}

	// Fast identification: which constraints are violated?
	for _, res := range chk.Check(constraints) {
		if res.Err != nil {
			log.Fatalf("%s: %v", res.Constraint.Name, res.Err)
		}
		fmt.Printf("%s violated=%v method=%s\n", res.Constraint.Name, res.Violated, res.Method)
	}

	// Drill into the violation: the BDD evaluation carries the violating
	// bindings...
	ws, err := chk.ViolationWitnesses(constraints[0], 10)
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range ws {
		fmt.Printf("witness %v = %v\n", w.Vars, w.Values)
	}
	// ... and the SQL baseline finds the same rows.
	rows, err := chk.ViolatingRows(constraints[0])
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < rows.Len(); i++ {
		fmt.Printf("sql row %v = %v\n", rows.Vars, rows.Decode(i))
	}
	// Output:
	// nj_areacodes violated=true method=bdd
	// toronto_in_ontario violated=false method=bdd
	// witness [c a] = [Newark 416]
	// sql row [c a] = [Newark 416]
}

// Example_curriculum is the running example of the paper's introduction:
// students of the CS department must take some course in the Programming
// area,
//
//	∀x_S ∃z STUDENT(x_S, "CS", z) ⇒
//	    ∃x_C (COURSE(x_C, "Programming") ∧ TAKES(x_S, x_C))
//
// through its lifecycle: the constraint holds, a new enrolment batch breaks
// it, the checker names the offending students from the violation BDD, and
// a partial repair leaves one of them. Last comes the SQL baseline's
// violation query for comparison.
func Example_curriculum() {
	cat := relation.NewCatalog()
	mk := func(name string, cols ...string) *relation.Table {
		specs := make([]relation.Column, len(cols))
		for i, c := range cols {
			specs[i] = relation.Column{Name: c, Domain: c}
		}
		t, err := cat.CreateTable(name, specs)
		if err != nil {
			log.Fatal(err)
		}
		return t
	}
	student := mk("STUDENT", "student_id", "department", "contact")
	course := mk("COURSE", "course_id", "area")
	takes := mk("TAKES", "student_id", "course_id")

	// A consistent initial state: every CS student takes cs101 or cs201.
	departments := []string{"CS", "Math", "Physics"}
	for i := 0; i < 60; i++ {
		student.Insert(fmt.Sprintf("s%02d", i), departments[i%3], fmt.Sprintf("contact%02d", i))
	}
	course.Insert("cs101", "Programming")
	course.Insert("cs201", "Programming")
	course.Insert("cs301", "Theory")
	course.Insert("m101", "Algebra")
	course.Insert("p101", "Mechanics")
	for i := 0; i < 60; i++ {
		id := fmt.Sprintf("s%02d", i)
		switch i % 3 {
		case 0:
			takes.Insert(id, []string{"cs101", "cs201"}[i%2])
			takes.Insert(id, "cs301")
		case 1:
			takes.Insert(id, "m101")
		case 2:
			takes.Insert(id, "p101")
		}
	}

	chk := core.New(cat, core.Options{})
	for _, tbl := range []string{"STUDENT", "COURSE", "TAKES"} {
		if _, err := chk.BuildIndex(tbl, tbl, nil, core.OrderProbConverge); err != nil {
			log.Fatal(err)
		}
	}
	f, err := logic.Parse(`
		forall s, z: STUDENT(s, "CS", z) =>
		    exists c: COURSE(c, "Programming") and TAKES(s, c)
	`)
	if err != nil {
		log.Fatal(err)
	}
	ct := logic.Constraint{Name: "cs_needs_programming", F: f}

	report := func(stage string) {
		res := chk.CheckOne(ct)
		if res.Err != nil {
			log.Fatalf("%s: %v", stage, res.Err)
		}
		fmt.Printf("%s: violated=%v method=%s\n", stage, res.Violated, res.Method)
		ws, err := chk.ViolationWitnesses(ct, 5)
		if err != nil {
			log.Fatal(err)
		}
		for _, w := range ws {
			fmt.Printf("  offending student %s\n", w.Values[0])
		}
	}
	report("initial load")

	// A new batch of CS students is enrolled without course assignments.
	for _, id := range []string{"s90", "s91", "s92"} {
		if _, err := chk.Apply([]core.Update{{Table: "STUDENT", Op: core.UpdateInsert, Values: []string{id, "CS", "contact-" + id}}}); err != nil {
			log.Fatal(err)
		}
	}
	report("after enrolment")

	// Two of them are repaired.
	for _, id := range []string{"s90", "s91"} {
		if _, err := chk.Apply([]core.Update{{Table: "TAKES", Op: core.UpdateInsert, Values: []string{id, "cs101"}}}); err != nil {
			log.Fatal(err)
		}
	}
	report("after partial repair")

	// The violation query a relational engine needs for the same question,
	// which the paper's introduction writes out by hand.
	sql, err := chk.SQLOf(ct)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sql)
	// Output:
	// initial load: violated=false method=bdd
	// after enrolment: violated=true method=bdd
	//   offending student s90
	//   offending student s91
	//   offending student s92
	// after partial repair: violated=true method=bdd
	//   offending student s92
	// ((SELECT 1)
	// NATURAL JOIN
	// (SELECT DISTINCT student_id AS s, contact AS z FROM STUDENT WHERE department = "CS"))
	// WHERE NOT EXISTS (SELECT DISTINCT s FROM (((SELECT 1)
	// NATURAL JOIN
	// (SELECT DISTINCT course_id AS c FROM COURSE WHERE area = "Programming"))
	// NATURAL JOIN
	// (SELECT DISTINCT student_id AS s, course_id AS c FROM TAKES)) matching on s)
}

// Example_dataquality monitors an order-processing database under inserts,
// the operational scenario the paper motivates: after every batch the
// checker revalidates the whole constraint set against the incrementally
// maintained indices and reports which constraints broke, with witnesses.
// Every second batch carries an order of an unknown customer and one whose
// region may not be its customer's.
func Example_dataquality() {
	rng := rand.New(rand.NewSource(3))
	cat := relation.NewCatalog()
	mk := func(name string, cols ...relation.Column) *relation.Table {
		t, err := cat.CreateTable(name, cols)
		if err != nil {
			log.Fatal(err)
		}
		return t
	}
	customers := mk("CUSTOMER",
		relation.Column{Name: "cust_id", Domain: "cust_id"},
		relation.Column{Name: "tier", Domain: "tier"},
		relation.Column{Name: "region", Domain: "region"})
	products := mk("PRODUCT",
		relation.Column{Name: "prod_id", Domain: "prod_id"},
		relation.Column{Name: "category", Domain: "category"})
	orders := mk("ORDERS",
		relation.Column{Name: "order_id", Domain: "order_id"},
		relation.Column{Name: "cust_id", Domain: "cust_id"},
		relation.Column{Name: "prod_id", Domain: "prod_id"},
		relation.Column{Name: "region", Domain: "region"})

	// Pre-intern the id spaces, so inserts stay inside the index blocks.
	regions := []string{"east", "west", "north", "south"}
	tiers := []string{"basic", "gold"}
	categories := []string{"hardware", "software", "services"}
	for i := 0; i < 500; i++ {
		cat.Domain("cust_id").Intern(fmt.Sprintf("c%03d", i))
	}
	for i := 0; i < 5000; i++ {
		cat.Domain("order_id").Intern(fmt.Sprintf("o%04d", i))
	}
	for i := 0; i < 100; i++ {
		cat.Domain("prod_id").Intern(fmt.Sprintf("p%03d", i))
	}
	custRegion := map[string]string{}
	for i := 0; i < 300; i++ {
		id := fmt.Sprintf("c%03d", i)
		region := regions[rng.Intn(len(regions))]
		custRegion[id] = region
		customers.Insert(id, tiers[rng.Intn(len(tiers))], region)
	}
	for i := 0; i < 100; i++ {
		products.Insert(fmt.Sprintf("p%03d", i), categories[rng.Intn(len(categories))])
	}

	chk := core.New(cat, core.Options{})
	for _, name := range []string{"CUSTOMER", "PRODUCT", "ORDERS"} {
		if _, err := chk.BuildIndex(name, name, nil, core.OrderProbConverge); err != nil {
			log.Fatal(err)
		}
	}
	constraints, err := logic.ParseConstraints(`
		# every order must reference a known customer
		constraint order_customer_exists:
		    forall o, c, p, r: ORDERS(o, c, p, r) => exists t, r2: CUSTOMER(c, t, r2).
		# every order must reference a known product
		constraint order_product_exists:
		    forall o, c, p, r: ORDERS(o, c, p, r) => exists g: PRODUCT(p, g).
		# the order's region must match the customer's region
		constraint order_region_matches:
		    forall o, c, p, r, t, r2:
		        ORDERS(o, c, p, r) and CUSTOMER(c, t, r2) => r = r2.
		# order ids are unique: order_id determines the customer
		constraint order_id_unique:
		    forall o, c1, c2: ORDERS(o, c1, _, _) and ORDERS(o, c2, _, _) => c1 = c2.
	`)
	if err != nil {
		log.Fatal(err)
	}

	orderSeq := 0
	for b := 1; b <= 6; b++ {
		dirty := b%2 == 0
		for i := 0; i < 50; i++ {
			orderSeq++
			custID := fmt.Sprintf("c%03d", rng.Intn(300))
			prodID := fmt.Sprintf("p%03d", rng.Intn(100))
			region := custRegion[custID]
			if dirty && i == 7 {
				custID = fmt.Sprintf("c%03d", 300+rng.Intn(100)) // unknown customer
			}
			if dirty && i == 23 {
				region = regions[rng.Intn(len(regions))] // possibly the wrong region
			}
			if _, err := chk.Apply([]core.Update{{Table: "ORDERS", Op: core.UpdateInsert, Values: []string{fmt.Sprintf("o%04d", orderSeq), custID, prodID, region}}}); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("batch %d: %d orders\n", b, orders.Len())
		for _, res := range chk.Check(constraints) {
			if res.Err != nil {
				log.Fatalf("%s: %v", res.Constraint.Name, res.Err)
			}
			if !res.Violated {
				continue
			}
			fmt.Printf("  VIOLATED %s (method=%s)\n", res.Constraint.Name, res.Method)
			ws, err := chk.ViolationWitnesses(res.Constraint, 2)
			if err != nil {
				log.Fatal(err)
			}
			for _, w := range ws {
				fmt.Printf("    e.g. %v = %v\n", w.Vars, w.Values)
			}
		}
	}
	// Output:
	// batch 1: 50 orders
	// batch 2: 100 orders
	//   VIOLATED order_customer_exists (method=bdd)
	//     e.g. [o c p r] = [o0058 c348 p037 south]
	//   VIOLATED order_region_matches (method=bdd)
	//     e.g. [o c p r t r2] = [o0074 c047 p076 east basic south]
	// batch 3: 150 orders
	//   VIOLATED order_customer_exists (method=bdd)
	//     e.g. [o c p r] = [o0058 c348 p037 south]
	//   VIOLATED order_region_matches (method=bdd)
	//     e.g. [o c p r t r2] = [o0074 c047 p076 east basic south]
	// batch 4: 200 orders
	//   VIOLATED order_customer_exists (method=bdd)
	//     e.g. [o c p r] = [o0158 c324 p038 south]
	//     e.g. [o c p r] = [o0058 c348 p037 south]
	//   VIOLATED order_region_matches (method=bdd)
	//     e.g. [o c p r t r2] = [o0174 c057 p030 west gold south]
	//     e.g. [o c p r t r2] = [o0074 c047 p076 east basic south]
	// batch 5: 250 orders
	//   VIOLATED order_customer_exists (method=bdd)
	//     e.g. [o c p r] = [o0158 c324 p038 south]
	//     e.g. [o c p r] = [o0058 c348 p037 south]
	//   VIOLATED order_region_matches (method=bdd)
	//     e.g. [o c p r t r2] = [o0174 c057 p030 west gold south]
	//     e.g. [o c p r t r2] = [o0074 c047 p076 east basic south]
	// batch 6: 300 orders
	//   VIOLATED order_customer_exists (method=bdd)
	//     e.g. [o c p r] = [o0058 c348 p037 south]
	//     e.g. [o c p r] = [o0158 c324 p038 south]
	//   VIOLATED order_region_matches (method=bdd)
	//     e.g. [o c p r t r2] = [o0274 c220 p097 north gold west]
	//     e.g. [o c p r t r2] = [o0174 c057 p030 west gold south]
}
