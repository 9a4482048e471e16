//go:build !linux

package main

// spreadSubdirs is a Linux/ext4 measure; see topdir_linux.go.
func spreadSubdirs(string) {}
