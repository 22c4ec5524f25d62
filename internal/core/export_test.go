package core

import "repro/internal/logic"

// EvaluatorOf hands the external tests the checker's evaluator, whose cached
// bindings they count and forget.
func EvaluatorOf(c *Checker) *logic.Evaluator { return c.ev }
