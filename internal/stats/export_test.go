package stats

// DomainSize returns attribute a's active-domain size.
func (m *Matrix) DomainSize(a int) int { return m.dom[a] }
