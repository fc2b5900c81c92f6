// Package lib holds one export of every kind the guard tells apart.
package lib

// Err is used inside the package; its Unwrap method has no caller but
// implements a standard interface.
type Err struct{ inner error }

func (e *Err) Error() string { return "lib: " + e.inner.Error() }

// Unwrap implements errors.Unwrap.
func (e *Err) Unwrap() error { return e.inner }

// Used is called by cmd/app.
func Used() int {
	var p plain
	return p.Plain()
}

// Check returns an Err, so the type has an unqualified use.
func Check(err error) error { return &Err{inner: err} }

// BenchOnly is called only by the separate bench module.
func BenchOnly() int { return 2 }

// TestOnly is called only by lib_test.go.
func TestOnly() int { return 3 }

// Kept is called only by lib_test.go, and allowlisted.
func Kept() int { return 4 }

type plain struct{}

func (plain) Plain() int { return 1 }

// Orphan appears only as the receiver of its own method.
type Orphan struct{}

func (Orphan) String() string { return "orphan" }
