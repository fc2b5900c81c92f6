// Package fixture is the facade of the surface-guard fixture.
package fixture

import "fixture/internal/lib"

// Result wraps a library value.
type Result struct{ v int }

// Run is called by cmd/app.
func Run() *Result { return &Result{v: lib.Used()} }

// Value is called by cmd/app.
func (r *Result) Value() int { return r.v }

// Plain has no caller where the facade is imported: the selector .Plain
// in internal/lib is another type's method.
func (r *Result) Plain() int { return r.v }

// Println has no caller: cmd/app's fmt.Println names a function of
// package fmt, not this method.
func (r *Result) Println() int { return r.v }
