package service

import "repro/internal/replica"

// Pool hands the external tests the replica pool, so they can park its
// workers and order a check against an update.
func (s *Server) Pool() *replica.Pool { return s.pool }
