# repro-looplets fuzz repro — grammar-coverage anchor: reduce mul(T0[band:walk+offset2] T1[dense:walk+offset]) via min
# replay: python this file (or repro.fuzz corpus replay)
import json

from repro.fuzz import conform_spec

SPEC = json.loads('{"accum":"min","combine":"mul","operands":[{"chains":[{"d1":0,"d2":0,"kind":"offset2"}],"data":[0.0,0.0],"formats":["band"],"name":"T0","protocols":["walk"]},{"chains":[{"delta":2,"kind":"offset"}],"data":[0.0,0.0],"formats":["dense"],"name":"T1","protocols":["walk"]}],"seed":2,"template":"reduce"}')
report = conform_spec(SPEC)
assert report.ok, "\n".join(str(d) for d in report.divergences)
print("ok:", __file__)
