//go:build !linux

package main

import (
	"errors"
	"io"
)

// runGenerator needs IP_PKTINFO source selection and SO_TIMESTAMPNS, which
// the benchmark implements for Linux only.
func runGenerator(genConfig, io.Reader, io.Writer) error {
	return errors.New("wirebench: the heartbeat generator runs on linux only")
}
