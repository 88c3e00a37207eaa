# repro-looplets fuzz repro — grammar-coverage anchor: outer mul(T0[vbl:walk] T1[dense,dense]) via add (a dense inner loop under a loop the output omits)
# replay: python this file (or repro.fuzz corpus replay)
import json

from repro.fuzz import conform_spec

SPEC = json.loads('{"accum":"add","combine":"mul","operands":[{"chains":[{"kind":"plain"}],"data":[1.0,2.0,2.0,2.0],"formats":["vbl"],"indices":[1],"name":"T0","protocols":["walk"]},{"chains":[{"kind":"plain"},{"kind":"plain"}],"data":[[0.0,0.0,-2.0,0.0],[0.0,0.0,-2.0,-2.0],[2.0,3.0,2.0,2.0],[0.0,0.0,0.0,0.0]],"formats":["dense","dense"],"indices":[0,2],"name":"T1","protocols":[null,null]}],"seed":13083,"template":"outer"}')
report = conform_spec(SPEC)
assert report.ok, "\n".join(str(d) for d in report.divergences)
print("ok:", __file__)
