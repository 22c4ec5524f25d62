package experiments

// Fig2aAt runs Fig 2(a) over relations of the given size, small enough for
// the test suite.
func Fig2aAt(tuples int) func(Config) error {
	return func(cfg Config) error { return fig2a(cfg, tuples) }
}
