// Package pages mocks the database file's durability surface.
package pages

type DiskManager interface {
	Sync() error
	Close() error
}
