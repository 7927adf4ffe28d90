// Package goroutine seeds raw go statements.
package goroutine

func spawn(fn func()) {
	go fn() // want `go statement in a deterministic package`
}

func spawnClosure(n int) {
	go func() { // want `go statement in a deterministic package`
		_ = n * n
	}()
}

func allowedSpawn(fn func()) {
	//simlint:allow goroutine — test fixture
	go fn()
}
