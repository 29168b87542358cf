//go:build !fedcheck

package tensor

// fedcheck is off: Arena's poisoning compiles away.
const fedcheck = false
