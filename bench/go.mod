module planck/bench

go 1.22

require planck v0.0.0

replace planck => ../
