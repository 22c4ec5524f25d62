// Package lockcross exercises the lockorder analyzer across packages: the
// cycle closes only through the summary of a function declared in another
// package, package dep.
package lockcross

import (
	"sync"

	"repro/internal/analysis/testdata/src/lockcross/dep"
)

type server struct {
	mu  sync.Mutex
	log *dep.Log
}

// record holds the server's lock and calls into dep, whose Append takes the
// log's lock.
func (s *server) record() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log.Append() // want `acquiring dep\.Log\.Mu while holding lockcross\.server\.mu creates a cycle in the global mutex order`
}

// flush takes the two locks the other way round.
func (s *server) flush() {
	s.log.Mu.Lock()
	defer s.log.Mu.Unlock()
	s.mu.Lock() // want `acquiring lockcross\.server\.mu while holding dep\.Log\.Mu creates a cycle in the global mutex order`
	s.mu.Unlock()
}
