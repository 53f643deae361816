module sqlarray/bench

go 1.22

require sqlarray v0.0.0

replace sqlarray => ../
