package spice

import "primopt/internal/numeric"

// SetFactorHook installs fn to see every real matrix e hands to an LU
// workspace.
func SetFactorHook(e *Engine, fn func(*numeric.Matrix)) { e.factorHook = fn }

// EnginePattern returns e's structural MNA pattern.
func EnginePattern(e *Engine) *numeric.Pattern { return e.pat }
