// Package dep holds the lock that package lockcross takes through a call
// into another package.
package dep

import "sync"

// Log is locked by its own method and, from lockcross, directly.
type Log struct {
	Mu sync.Mutex
}

// Append takes the log's lock; lockcross learns that only from Append's
// summary.
func (l *Log) Append() {
	l.Mu.Lock()
	defer l.Mu.Unlock()
}
