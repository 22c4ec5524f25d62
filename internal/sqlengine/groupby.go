package sqlengine

import "repro/internal/relation"

// groupby.go provides the grouping-based plans a relational engine uses for
// dependency-style constraints — the paper's SQL side of Figure 5(b)
// ("Using SQL involves the use of a group-by query").

// CheckFD reports whether the functional dependency lhs → rhs is violated
// in t: some lhs group holds more than one distinct rhs combination. It is
// the hash group-by plan SELECT lhs FROM t GROUP BY lhs HAVING
// COUNT(DISTINCT rhs) > 1.
func CheckFD(t *relation.Table, lhs, rhs []int) bool {
	firstRHS := make(map[string]string, 1024)
	var lkey, rkey []byte
	for _, row := range t.Rows() {
		lkey = relation.AppendKey(lkey[:0], row, lhs)
		rkey = relation.AppendKey(rkey[:0], row, rhs)
		l, r := string(lkey), string(rkey)
		if prev, ok := firstRHS[l]; ok {
			if prev != r {
				return true
			}
		} else {
			firstRHS[l] = r
		}
	}
	return false
}
