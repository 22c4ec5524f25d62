package experiments

// Fig2aAt runs Fig 2(a) over relations of the given size, small enough for
// the test suite.
func Fig2aAt(tuples int) func(Config) error {
	return func(cfg Config) error { return fig2a(cfg, tuples) }
}

// Fig2bcAt runs Fig 2(b,c) over a relation of the given size, small enough
// for the test suite.
func Fig2bcAt(tuples int) func(Config) error {
	return func(cfg Config) error { return fig2bc(cfg, tuples) }
}
