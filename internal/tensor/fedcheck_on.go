//go:build fedcheck

package tensor

// fedcheck turns on Arena's poisoning of released storage.
const fedcheck = true
