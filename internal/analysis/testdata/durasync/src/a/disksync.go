package a

import "pages"

// The data-file fsync a checkpoint runs before it logs that the pages
// are on disk: dropping its error logs a checkpoint over pages that may
// never have reached the platter.
func badDiskSync(d pages.DiskManager) {
	d.Sync() // want `statement discards the error of DiskManager\.Sync`
}

func okDiskSync(d pages.DiskManager) error {
	if err := d.Sync(); err != nil {
		return err
	}
	return nil
}
