# repro-looplets fuzz repro — grammar-coverage anchor: reduce2d min(T0[bitmap:walk,rle:walk+offset] T1[dense:walk+offset_exact,vbl+offset2]) via max
# replay: python this file (or repro.fuzz corpus replay)
import json

from repro.fuzz import conform_spec

SPEC = json.loads('{"accum":"max","combine":"min","operands":[{"chains":[{"kind":"plain"},{"delta":-10,"kind":"offset"}],"data":[[1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0],[0.0,0.0,0.0,0.0,0.0,0.0,0.0,1.0,1.0,1.0],[0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0],[0.0,0.0,0.0,0.0,0.0,0.0,0.0,-1.0,2.0,0.0],[0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0]],"formats":["bitmap","rle"],"name":"T0","protocols":["walk","walk"]},{"chains":[{"delta":-2,"kind":"offset_exact"},{"d1":0,"d2":4,"kind":"offset2"}],"data":[[0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0],[0.0,0.0,0.0,2.0,-3.0,2.0,0.0,0.0,2.0,0.0],[0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0],[1.0,1.0,-1.0,3.0,-2.0,-2.0,-1.0,-3.0,-2.0,-1.0],[0.0,3.0,0.0,0.0,3.0,-1.0,0.0,0.0,0.0,0.0]],"formats":["dense","vbl"],"name":"T1","protocols":["walk",null]}],"seed":249,"template":"reduce2d"}')
report = conform_spec(SPEC)
assert report.ok, "\n".join(str(d) for d in report.divergences)
print("ok:", __file__)
