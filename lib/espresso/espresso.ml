module Dense = Dense
module Qm = Qm
module Multi = Multi
